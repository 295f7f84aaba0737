#include "nn/text_conv.h"

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/cpu.h"
#include "common/threadpool.h"
#include "nn/gemm/text_conv_kernel.h"

namespace omnimatch {
namespace nn {

namespace textconv {

// Compiled with the default portable flags: this file only takes the
// addresses of the per-ISA entry points, so no wide instruction can run
// before cpuid approves it.
ForwardDocsFn SelectKernel(IsaLevel level) {
#if defined(OMNIMATCH_HAVE_AVX2)
  if (level == IsaLevel::kAvx2 || level == IsaLevel::kAvx512) {
    return &isa_avx2::ForwardDocs;
  }
#endif
  (void)level;
  return &isa_portable::ForwardDocs;
}

}  // namespace textconv

namespace {

/// SelectKernel(ActiveIsa()), resolved once.
textconv::ForwardDocsFn ActiveKernel() {
  static const textconv::ForwardDocsFn fn =
      textconv::SelectKernel(ActiveIsa());
  return fn;
}

void CheckShape(const TextConvShape& shape, const TextConvGroup* groups) {
  OM_CHECK_GE(shape.batch, 0);
  OM_CHECK_GT(shape.embed, 0);
  OM_CHECK_GT(shape.channels, 0);
  OM_CHECK(shape.num_groups > 0 && shape.num_groups <= kMaxTextConvGroups)
      << "filter bank of " << shape.num_groups << " kernel sizes";
  for (int g = 0; g < shape.num_groups; ++g) {
    OM_CHECK_GT(groups[g].kernel_size, 0);
    OM_CHECK_GE(shape.length, groups[g].kernel_size)
        << "document shorter than kernel";
  }
}

}  // namespace

void TextConvWorkspace::Size(const TextConvShape& shape) {
  argmax.resize(static_cast<size_t>(shape.batch) * shape.num_groups *
                shape.channels);
}

void TextConvMaxPoolForward(const float* x, const TextConvShape& shape,
                            const TextConvGroup* groups, float* out,
                            TextConvWorkspace* ws) {
  int* argmax = nullptr;
  if (ws != nullptr) {
    ws->Size(shape);
    argmax = ws->argmax.data();
  }
  textconv::ForwardWith(ActiveKernel(), x, shape, groups, out, argmax);
}

void textconv::ForwardWith(ForwardDocsFn kernel, const float* x,
                           const TextConvShape& shape,
                           const TextConvGroup* groups, float* out,
                           int* argmax) {
  CheckShape(shape, groups);
  const int embed = shape.embed;
  const int channels = shape.channels;
  TapBank bank;
  bank.embed = embed;
  bank.channels = channels;
  bank.num_groups = shape.num_groups;
  bank.min_kernel = groups[0].kernel_size;
  int taps = 0;
  for (int g = 0; g < shape.num_groups; ++g) {
    bank.kernel_size[g] = groups[g].kernel_size;
    bank.tap_base[g] = taps;
    bank.bias[g] = groups[g].bias;
    bank.min_kernel = std::min(bank.min_kernel, groups[g].kernel_size);
    bank.max_kernel = std::max(bank.max_kernel, groups[g].kernel_size);
    taps += groups[g].kernel_size;
  }
  const int align = kTapColumnAlign;
  bank.width = (taps * channels + align - 1) / align * align;

  // W_taps[e, (tap_base_g + j) * C + c] = weight_g[c, j*E + e]; padding
  // columns stay zero. Packed once per call on the calling thread; the
  // pool's workers only read it.
  static thread_local std::vector<float> packed;
  packed.assign(static_cast<size_t>(embed) * bank.width, 0.0f);
  for (int g = 0; g < shape.num_groups; ++g) {
    const int k = groups[g].kernel_size;
    for (int c = 0; c < channels; ++c) {
      const float* filter =
          groups[g].weight + static_cast<size_t>(c) * k * embed;
      for (int j = 0; j < k; ++j) {
        float* col = packed.data() + (bank.tap_base[g] + j) * channels + c;
        for (int e = 0; e < embed; ++e) {
          col[static_cast<size_t>(e) * bank.width] = filter[j * embed + e];
        }
      }
    }
  }
  bank.taps = packed.data();

  const size_t block_floats =
      static_cast<size_t>(std::min(
          shape.length, kTextConvRowBlock + bank.max_kernel - 1)) *
      bank.width;
  const size_t arg_ints = static_cast<size_t>(shape.num_groups) * channels;
  // Per document: the multiply-adds of the [length, embed] x
  // [embed, taps * channels] tap GEMM (padding columns not counted).
  const int64_t doc_work =
      2 * static_cast<int64_t>(shape.length) * embed * taps * channels;
  ParallelFor(0, shape.batch, 1, doc_work, [&](int64_t b0, int64_t b1) {
    static thread_local std::vector<float> block;
    static thread_local std::vector<int> arg;
    if (block.size() < block_floats) block.resize(block_floats);
    if (arg.size() < arg_ints) arg.resize(arg_ints);
    kernel(bank, x, shape.length, static_cast<int>(b0), static_cast<int>(b1),
           block.data(), arg.data(), out, argmax);
  });
}

void TextConvMaxPoolBackward(const float* x, const TextConvShape& shape,
                             const TextConvGroup* groups, const float* out,
                             const float* dout, const TextConvWorkspace& ws,
                             float* dx) {
  CheckShape(shape, groups);
  const int* argmax = ws.argmax.data();
  const int batch = shape.batch;
  const int length = shape.length;
  const int embed = shape.embed;
  const int channels = shape.channels;
  const int cols = shape.num_groups * channels;
  // An output contributes only when it has a gradient and passed the ReLU.
  auto live = [&](size_t oc) {
    return !(dout[oc] == 0.0f || out[oc] <= 0.0f);
  };
  // Every output scatters (dx) or gathers (dW) one filter's weights.
  int64_t filter_floats = 0;
  for (int g = 0; g < shape.num_groups; ++g) {
    filter_floats += static_cast<int64_t>(groups[g].kernel_size) * embed;
  }
  const int64_t out_work = 2 * filter_floats * channels;
  if (dx != nullptr) {
    ParallelFor(0, batch, 1, out_work, [&](int64_t b0, int64_t b1) {
      for (int64_t b = b0; b < b1; ++b) {
        float* ddoc = dx + static_cast<size_t>(b) * length * embed;
        for (int col = 0; col < cols; ++col) {
          const size_t oc = static_cast<size_t>(b) * cols + col;
          if (!live(oc)) continue;
          const TextConvGroup& grp = groups[col / channels];
          const int filter_len = grp.kernel_size * embed;
          const float g = dout[oc];
          const float* wrow =
              grp.weight + static_cast<size_t>(col % channels) * filter_len;
          float* dwin = ddoc + static_cast<size_t>(argmax[oc]) * embed;
          for (int j = 0; j < filter_len; ++j) dwin[j] += g * wrow[j];
        }
      }
    });
  }
  const int64_t col_work = out_work * batch / cols;
  ParallelFor(0, cols, 1, col_work, [&](int64_t c0, int64_t c1) {
    for (int64_t col = c0; col < c1; ++col) {
      const TextConvGroup& grp = groups[col / channels];
      const int c = static_cast<int>(col % channels);
      const int filter_len = grp.kernel_size * embed;
      float* dwrow = grp.weight_grad != nullptr
                         ? grp.weight_grad + static_cast<size_t>(c) * filter_len
                         : nullptr;
      if (dwrow == nullptr && grp.bias_grad == nullptr) continue;
      for (int b = 0; b < batch; ++b) {
        const size_t oc = static_cast<size_t>(b) * cols + col;
        if (!live(oc)) continue;
        const float g = dout[oc];
        if (grp.bias_grad != nullptr) grp.bias_grad[c] += g;
        if (dwrow != nullptr) {
          const float* win =
              x + (static_cast<size_t>(b) * length + argmax[oc]) * embed;
          for (int j = 0; j < filter_len; ++j) dwrow[j] += g * win[j];
        }
      }
    }
  });
}

}  // namespace nn
}  // namespace omnimatch
