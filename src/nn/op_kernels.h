#ifndef OMNIMATCH_NN_OP_KERNELS_H_
#define OMNIMATCH_NN_OP_KERNELS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/tensor.h"

namespace omnimatch {
namespace nn {

/// The raw-pointer kernels behind every op the graph executor records
/// (internal to nn). Each is defined next to its eager op in ops.cc or
/// losses.cc. The eager op allocates its output, calls the forward kernel
/// and captures the backward kernel in its closure; a replayed graph node
/// calls the same two kernels on arena buffers (graph.cc). Replay therefore
/// equals eager by construction. The text-CNN kernel lives in
/// nn/text_conv.h under the same contract.
///
/// Forward kernels overwrite `out`. Backward kernels accumulate (+=) into
/// every gradient pointer they are given; a null gradient pointer means
/// that input wants none. Every loop is sharded so each output element is
/// written by exactly one chunk in a fixed order, so results are
/// bit-identical for every thread count.

// --- Eager-side helpers shared by ops.cc and losses.cc ------------------

/// Creates the output node of an eager op: zero-filled data of `shape`,
/// requires_grad propagated from the parents, and the parent edges when a
/// gradient is needed. The caller attaches backward_fn only when the
/// output requires grad.
Tensor MakeOutput(std::vector<int> shape,
                  std::vector<std::shared_ptr<TensorImpl>> parents);

/// `t`'s gradient buffer, allocated zero-filled on first use; null when
/// `t` does not require grad.
float* GradOf(TensorImpl* t);

// --- Elementwise over n elements -----------------------------------------

void AddForward(const float* a, const float* b, float* out, int64_t n);
/// dx += dout: the backward of Add (once per input), Reshape, ConcatRows
/// (per part) and the matrix side of AddRowBroadcast.
void AccumulateGrad(const float* dout, float* dx, int64_t n);

void MulForward(const float* a, const float* b, float* out, int64_t n);
void MulBackward(const float* a, const float* b, const float* dout, float* da,
                 float* db, int64_t n);

void ScaleForward(const float* a, float s, float* out, int64_t n);
void ScaleBackward(const float* dout, float s, float* da, int64_t n);

void ReluForward(const float* x, float* out, int64_t n);
void ReluBackward(const float* x, const float* dout, float* dx, int64_t n);

/// out = x: the forward of Reshape and GradReverse, and of one ConcatRows
/// part.
void CopyForward(const float* x, float* out, int64_t n);
/// dx -= lambda * dout.
void GradReverseBackward(const float* dout, float lambda, float* dx,
                         int64_t n);

// --- Row broadcast, matmul, concat, gather, mean --------------------------

/// out[r, c] = mat[r, c] + row[c].
void AddRowBroadcastForward(const float* mat, const float* row, float* out,
                            int rows, int cols);
/// dmat += dout; drow[c] += sum over r of dout[r, c], rows ascending. The
/// bias reduction is also the fused linear node's bias gradient.
void AddRowBroadcastBackward(const float* dout, float* dmat, float* drow,
                             int rows, int cols);

/// out[M,N] = A[M,K] * B[K,N].
void MatMulForward(const float* a, const float* b, float* out, int m, int k,
                   int n);
/// dA += dOut * B^T, dB += A^T * dOut.
void MatMulBackward(const float* a, const float* b, const float* dout,
                    float* da, float* db, int m, int k, int n);

/// Writes one [rows, cols] part into columns [col_offset, col_offset + cols)
/// of out [rows, total_cols].
void ConcatColsForward(const float* part, int rows, int cols, int total_cols,
                       int col_offset, float* out);
void ConcatColsBackward(const float* dout, int rows, int cols, int total_cols,
                        int col_offset, float* dpart);

/// out[r] = table[ids[r]]. Every id is checked against [0, vocab): the ids
/// come from outside the op, so both execution paths check them here.
void GatherForward(const float* table, int vocab, int width, const int* ids,
                   int64_t num_ids, float* out);
/// Scatter-adds dout rows into dtable, sharded by destination row.
void GatherBackward(const float* dout, const int* ids, int64_t num_ids,
                    int vocab, int width, float* dtable);

/// x [batch, length, width] -> out [batch, width], the mean over length.
void MeanAxis1Forward(const float* x, int batch, int length, int width,
                      float* out);
void MeanAxis1Backward(const float* dout, int batch, int length, int width,
                       float* dx);

// --- Kernels with a workspace ---------------------------------------------
//
// The forward kernel sizes its workspace (a no-op once sized) and leaves in
// it what the backward kernel reads. The eager closure holds one workspace
// per call; a graph node holds one, sized when its plan is compiled.

/// Dropout's keep mask: 0 for a dropped element, 1/(1-p) for a kept one.
struct DropoutWorkspace {
  std::vector<float> mask;
  void Size(int64_t n);
};

/// Draws one Bernoulli(p) per element from `rng`, serially, so the stream
/// does not depend on threading.
void DropoutForward(const float* x, float p, Rng* rng, int64_t n,
                    DropoutWorkspace* ws, float* out);
void DropoutBackward(const float* dout, const DropoutWorkspace& ws, float* dx,
                     int64_t n);

struct CrossEntropyWorkspace {
  std::vector<float> probs;     // [batch, classes] softmax of each row
  std::vector<float> row_loss;  // [batch]
  void Size(int batch, int classes);
};

/// Mean over rows of -log softmax(logits)[label]. Every label is checked
/// against [0, classes).
float SoftmaxCrossEntropyForward(const float* logits, const int* labels,
                                 int batch, int classes,
                                 CrossEntropyWorkspace* ws);
void SoftmaxCrossEntropyBackward(const CrossEntropyWorkspace& ws,
                                 const int* labels, int batch, int classes,
                                 float dloss, float* dlogits);

struct SupConWorkspace {
  std::vector<float> norm_feats;    // [batch, dim] L2-normalized rows
  std::vector<float> norms;         // [batch]
  std::vector<float> sims;          // [batch, batch] cosine / temperature
  std::vector<float> probs;         // [batch, batch] softmax over j != i
  std::vector<float> lse;           // [batch]
  std::vector<double> anchor_loss;  // [batch]
  std::vector<int> pos_count;       // [batch] positives of each anchor
  std::vector<float> gmat;          // [batch, batch] backward: dL/dsims
  std::vector<float> sym;           // [batch, batch] backward
  std::vector<float> dnorm;         // [batch, dim] backward
  int valid_anchors = 0;            // anchors with a positive (forward)
  void Size(int batch, int dim);
};

/// The supervised contrastive loss over rows of z [batch, dim]. Sets
/// ws->valid_anchors and returns 0 when it is 0 (no positive pair).
float SupConForward(const float* z, const int* labels, int batch, int dim,
                    float temperature, SupConWorkspace* ws);
/// Requires ws->valid_anchors > 0.
void SupConBackward(const int* labels, int batch, int dim, float temperature,
                    float dloss, SupConWorkspace* ws, float* dz);

}  // namespace nn
}  // namespace omnimatch

#endif  // OMNIMATCH_NN_OP_KERNELS_H_
