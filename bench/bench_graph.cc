// Eager vs recorded-graph training-step benchmark plus microbenches of the
// fused kernels the graph compiler emits. Eager and recorded reps are
// interleaved so clock drift hits both variants equally. Writes a
// machine-readable BENCH_graph.json with speedup_vs_eager per thread count.
// Zero tensor-node allocations per replayed step is a correctness contract,
// pinned by GraphTrainerTest.ReplayedStepsAllocateNoTensorNodes.
//
//   ./bench_graph [--out=BENCH_graph.json] [--reps=5] [--max-threads=4]
//                 [--epochs=2] [--check_speedup_min=0]
//
// --check_speedup_min > 0 turns the run into a self-checking smoke test:
// the process fails unless every thread count replayed steps and its
// recorded-vs-eager speedup reaches the threshold.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/threadpool.h"
#include "core/trainer.h"
#include "data/splits.h"
#include "data/synthetic.h"
#include "nn/gemm.h"
#include "obs/metrics.h"

using namespace omnimatch;

namespace {

int g_reps = 5;

/// Best-of-reps nanoseconds per call. Each rep runs the function enough
/// times to cover ~20 ms so the timer resolution never dominates.
double BenchNs(const std::function<void()>& fn) {
  Stopwatch warm;
  fn();
  double once = std::max(warm.ElapsedSeconds(), 1e-9);
  int iters = std::max(1, static_cast<int>(0.02 / once));
  double best = 1e300;
  for (int rep = 0; rep < g_reps; ++rep) {
    Stopwatch watch;
    for (int i = 0; i < iters; ++i) fn();
    best = std::min(best, watch.ElapsedSeconds() / iters);
  }
  return best * 1e9;
}

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (float& x : v) x = rng->UniformFloat(-1.0f, 1.0f);
  return v;
}

/// One eager-vs-recorded comparison at a fixed thread count.
struct StepSample {
  int threads = 1;
  double eager_ns = 0.0;     // steady-state forward+losses+backward per step
  double recorded_ns = 0.0;  // same, with --graph_exec (record step included)
  int64_t plans = 0;
  int64_t record_steps = 0;
  int64_t replay_steps = 0;
  int64_t arena_bytes = 0;
  double speedup() const {
    return recorded_ns > 0.0 ? eager_ns / recorded_ns : 0.0;
  }
};

/// Fused-kernel microbench record.
struct KernelSample {
  std::string name;
  std::string variant;  // "unfused" or "fused"
  int threads = 1;
  double ns = 0.0;
};

core::OmniMatchConfig SmokeConfig(bool graph_exec, int epochs) {
  core::OmniMatchConfig config;
  config.embed_dim = 8;
  config.cnn_channels = 4;
  config.kernel_sizes = {2, 3};
  config.feature_dim = 8;
  config.projection_dim = 4;
  config.doc_len = 16;
  config.item_doc_len = 16;
  config.batch_size = 8;
  config.epochs = epochs;
  // Timing wants pure training steps: no per-epoch validation forward.
  config.select_best_epoch = false;
  config.seed = 13;
  config.graph_exec = graph_exec;
  return config;
}

double PhaseSumNs(const char* name) {
  return obs::MetricsRegistry::Global().GetHistogram(name)->Sum();
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  if (!flags.Parse(argc, argv).ok()) return 1;
  g_reps = flags.GetInt("reps", 5);
  std::string out_path = flags.GetString("out", "BENCH_graph.json");
  int max_threads = flags.GetInt("max-threads", 4);
  int epochs = flags.GetInt("epochs", 2);
  double check_speedup_min = flags.GetDouble("check_speedup_min", 0.0);
  std::vector<int> thread_counts = {1};
  for (int t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);

  data::SyntheticConfig world_config;
  world_config.num_users = 120;
  world_config.items_per_domain = 60;
  world_config.mean_reviews_per_user = 5;
  world_config.seed = 11;
  data::SyntheticWorld world(world_config);
  data::CrossDomainDataset cross = world.MakePair("Books", "Movies");
  Rng split_rng(12);
  data::ColdStartSplit split = data::MakeColdStartSplit(cross, &split_rng);

  obs::EnableMetrics(true);

  // --- Interleaved eager vs recorded full-training comparison ---
  std::vector<StepSample> step_samples;
  for (int threads : thread_counts) {
    StepSample sample;
    sample.threads = threads;
    double best_ns[2] = {1e300, 1e300};  // [eager, recorded]
    for (int rep = 0; rep < g_reps; ++rep) {
      for (int recorded = 0; recorded <= 1; ++recorded) {
        core::OmniMatchConfig config = SmokeConfig(recorded == 1, epochs);
        config.num_threads = threads;
        core::OmniMatchTrainer trainer(config, &cross, split);
        if (!trainer.Prepare().ok()) {
          std::fprintf(stderr, "bench_graph: Prepare failed\n");
          return 1;
        }
        obs::MetricsRegistry::Global().ResetAll();
        core::TrainStats stats = trainer.Train();
        if (stats.steps <= 0) {
          std::fprintf(stderr, "bench_graph: no training steps ran\n");
          return 1;
        }
        // Steady-state step time: the graph-covered region (forward +
        // losses + backward), excluding document assembly and the
        // optimizer, which are identical in both modes.
        double step_ns = (PhaseSumNs("trainer.forward_ns") +
                          PhaseSumNs("trainer.losses_ns") +
                          PhaseSumNs("trainer.backward_ns")) /
                         stats.steps;
        best_ns[recorded] = std::min(best_ns[recorded], step_ns);
        if (recorded == 1) {
          const nn::graph::GraphExecutor::Stats& gs =
              trainer.graph_executor()->stats();
          sample.plans = gs.plans;
          sample.record_steps = gs.record_steps;
          sample.replay_steps = gs.replay_steps;
          sample.arena_bytes = gs.arena_bytes_max;
        }
      }
    }
    sample.eager_ns = best_ns[0];
    sample.recorded_ns = best_ns[1];
    step_samples.push_back(sample);
  }

  // --- Fused-kernel microbenches (the kernels the fusion pass emits) ---
  std::vector<KernelSample> kernel_samples;
  {
    constexpr int kM = 64, kK = 32, kN = 48;
    Rng rng(1);
    std::vector<float> a = RandomVec(static_cast<size_t>(kM) * kK, &rng);
    std::vector<float> b = RandomVec(static_cast<size_t>(kK) * kN, &rng);
    std::vector<float> bias = RandomVec(kN, &rng);
    std::vector<float> mm(static_cast<size_t>(kM) * kN, 0.0f);
    std::vector<float> biased(mm.size(), 0.0f);
    std::vector<float> relued(mm.size(), 0.0f);
    std::string name = StrFormat("FusedLinear/%dx%dx%d", kM, kK, kN);
    for (int threads : {1, max_threads}) {
      SetNumThreads(threads);
      // Eager chain: three ops, three output buffers.
      kernel_samples.push_back({name, "unfused", threads, BenchNs([&] {
        std::fill(mm.begin(), mm.end(), 0.0f);
        nn::GemmNN(a.data(), b.data(), mm.data(), kM, kK, kN);
        for (int r = 0; r < kM; ++r) {
          for (int c = 0; c < kN; ++c) {
            size_t i = static_cast<size_t>(r) * kN + static_cast<size_t>(c);
            biased[i] = mm[i] + bias[static_cast<size_t>(c)];
          }
        }
        for (size_t i = 0; i < biased.size(); ++i) {
          relued[i] = biased[i] > 0.0f ? biased[i] : 0.0f;
        }
      })});
      kernel_samples.push_back({name, "fused", threads, BenchNs([&] {
        nn::FusedLinearForward(a.data(), b.data(), bias.data(), relued.data(),
                               kM, kK, kN, /*relu=*/true);
      })});
    }
  }
  {
    constexpr int kVocab = 2000, kEmbed = 16, kIds = 64 * 32;
    Rng rng(2);
    std::vector<float> table =
        RandomVec(static_cast<size_t>(kVocab) * kEmbed, &rng);
    std::vector<int> ids(kIds);
    for (int& id : ids) id = static_cast<int>(rng.UniformU32(kVocab));
    std::vector<float> gathered(static_cast<size_t>(kIds) * kEmbed, 0.0f);
    std::vector<float> reshaped(gathered.size(), 0.0f);
    std::string name = StrFormat("GatherReshape/%dx%d", kIds, kEmbed);
    auto gather_rows = [&](std::vector<float>* dst) {
      for (size_t i = 0; i < ids.size(); ++i) {
        const float* src = table.data() +
                           static_cast<size_t>(ids[i]) * kEmbed;
        std::copy(src, src + kEmbed, dst->data() + i * kEmbed);
      }
    };
    for (int threads : {1, max_threads}) {
      SetNumThreads(threads);
      // Eager chain materializes the gather, then Reshape copies it again.
      kernel_samples.push_back({name, "unfused", threads, BenchNs([&] {
        gather_rows(&gathered);
        std::copy(gathered.begin(), gathered.end(), reshaped.begin());
      })});
      // The fused node gathers straight into the reshaped buffer.
      kernel_samples.push_back({name, "fused", threads, BenchNs([&] {
        gather_rows(&reshaped);
      })});
    }
  }
  SetNumThreads(1);
  obs::EnableMetrics(false);

  // --- Report ---
  std::printf("%-8s %14s %14s %10s\n", "threads", "eager ns/step",
              "recorded ns", "speedup");
  for (const StepSample& s : step_samples) {
    std::printf("%-8d %14.0f %14.0f %9.2fx\n", s.threads, s.eager_ns,
                s.recorded_ns, s.speedup());
  }
  std::printf("%-28s %-8s %8s %14s\n", "kernel", "variant", "threads",
              "ns/call");
  for (const KernelSample& k : kernel_samples) {
    std::printf("%-28s %-8s %8d %14.0f\n", k.name.c_str(), k.variant.c_str(),
                k.threads, k.ns);
  }

  std::string json = "{\n  \"schema\": \"omnimatch-bench-graph-v1\",\n";
  json += "  \"unit\": \"ns_per_step\",\n  \"trainer_step\": [\n";
  for (size_t i = 0; i < step_samples.size(); ++i) {
    const StepSample& s = step_samples[i];
    json += StrFormat(
        "    {\"threads\": %d, \"eager_ns\": %.1f, \"recorded_ns\": %.1f, "
        "\"speedup_vs_eager\": %.3f, \"plans\": %lld, "
        "\"record_steps\": %lld, \"replay_steps\": %lld, "
        "\"arena_bytes\": %lld}%s\n",
        s.threads, s.eager_ns, s.recorded_ns, s.speedup(),
        static_cast<long long>(s.plans),
        static_cast<long long>(s.record_steps),
        static_cast<long long>(s.replay_steps),
        static_cast<long long>(s.arena_bytes),
        i + 1 < step_samples.size() ? "," : "");
  }
  json += "  ],\n  \"kernels\": [\n";
  for (size_t i = 0; i < kernel_samples.size(); ++i) {
    const KernelSample& k = kernel_samples[i];
    json += StrFormat(
        "    {\"name\": \"%s\", \"variant\": \"%s\", \"threads\": %d, "
        "\"ns\": %.1f}%s\n",
        k.name.c_str(), k.variant.c_str(), k.threads, k.ns,
        i + 1 < kernel_samples.size() ? "," : "");
  }
  json += "  ]\n}\n";
  std::ofstream out(out_path);
  if (!out || !(out << json)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  if (check_speedup_min > 0.0) {
    bool ok = true;
    for (const StepSample& s : step_samples) {
      if (s.speedup() < check_speedup_min) {
        std::fprintf(stderr,
                     "CHECK FAILED: %d threads: recorded/eager speedup "
                     "%.2fx < %.2fx\n",
                     s.threads, s.speedup(), check_speedup_min);
        ok = false;
      }
      if (s.replay_steps <= 0) {
        std::fprintf(stderr, "CHECK FAILED: %d threads: no steps replayed\n",
                     s.threads);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("speedup check passed (min %.2fx)\n", check_speedup_min);
  }
  return 0;
}
