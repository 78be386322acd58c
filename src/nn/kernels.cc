#include "nn/kernels.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/check.h"
#include "common/threadpool.h"
#include "nn/elemwise.h"
#include "nn/gemm.h"
#include "obs/metrics.h"

namespace omnimatch {
namespace nn {
namespace kernels {

namespace {

using graph::OpKind;

size_t Count(const Operand& t) { return static_cast<size_t>(t.numel); }

// --- elementwise -----------------------------------------------------------

void AddForward(const Call& c) {
  const float* a = c.in[0].data;
  const float* b = c.in[1].data;
  float* out = c.out.data;
  ParallelElems(Count(c.out), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) out[i] = a[i] + b[i];
  });
}

void AddBackward(const Call& c) {
  const float* og = c.out.grad;
  for (const Operand& in : c.in) {
    float* ig = in.grad;
    if (ig == nullptr) continue;
    ParallelElems(Count(c.out), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) ig[i] += og[i];
    });
  }
}

void MulForward(const Call& c) {
  const float* a = c.in[0].data;
  const float* b = c.in[1].data;
  float* out = c.out.data;
  ParallelElems(Count(c.out), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) out[i] = a[i] * b[i];
  });
}

void MulBackward(const Call& c) {
  const float* og = c.out.grad;
  for (int j = 0; j < 2; ++j) {
    float* ig = c.in[j].grad;
    if (ig == nullptr) continue;
    const float* other = c.in[1 - j].data;
    ParallelElems(Count(c.out), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) ig[i] += og[i] * other[i];
    });
  }
}

void ScaleForward(const Call& c) {
  const float* a = c.in[0].data;
  float* out = c.out.data;
  float s = c.f0;
  ParallelElems(Count(c.out), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) out[i] = a[i] * s;
  });
}

void ScaleBackward(const Call& c) {
  const float* og = c.out.grad;
  float* ag = c.in[0].grad;
  float s = c.f0;
  ParallelElems(Count(c.out), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ag[i] += s * og[i];
  });
}

void AddRowBroadcastForward(const Call& c) {
  int rows = c.out.dim(0);
  int cols = c.out.dim(1);
  const float* mv = c.in[0].data;
  const float* rv = c.in[1].data;
  float* out = c.out.data;
  ParallelFor(0, rows, std::max<int64_t>(1, kElemGrain / cols),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  const float* src = mv + static_cast<size_t>(r) * cols;
                  float* dst = out + static_cast<size_t>(r) * cols;
                  for (int col = 0; col < cols; ++col) {
                    dst[col] = src[col] + rv[col];
                  }
                }
              });
}

void AddRowBroadcastBackward(const Call& c) {
  int rows = c.out.dim(0);
  int cols = c.out.dim(1);
  const float* og = c.out.grad;
  if (float* mg = c.in[0].grad) {
    ParallelElems(Count(c.out), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) mg[i] += og[i];
    });
  }
  if (float* rg = c.in[1].grad) {
    // Column reduction: each column owned by one chunk, rows walked in
    // ascending order — deterministic for any thread count.
    ParallelFor(0, cols, std::max<int64_t>(1, kElemGrain / rows),
                [&](int64_t c0, int64_t c1) {
                  for (int r = 0; r < rows; ++r) {
                    const float* grow = og + static_cast<size_t>(r) * cols;
                    for (int64_t col = c0; col < c1; ++col) {
                      rg[col] += grow[col];
                    }
                  }
                });
  }
}

void ReluForward(const Call& c) {
  const float* x = c.in[0].data;
  float* out = c.out.data;
  ParallelElems(Count(c.out), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) out[i] = x[i] > 0.0f ? x[i] : 0.0f;
  });
}

void ReluBackward(const Call& c) {
  const float* og = c.out.grad;
  const float* x = c.in[0].data;
  float* xg = c.in[0].grad;
  ParallelElems(Count(c.out), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      if (x[i] > 0.0f) xg[i] += og[i];
    }
  });
}

/// Reshape and GradReverse forward: the same values in a new node.
void CopyForward(const Call& c) {
  std::copy(c.in[0].data, c.in[0].data + c.in[0].numel, c.out.data);
}

void ReshapeBackward(const Call& c) {
  const float* og = c.out.grad;
  float* xg = c.in[0].grad;
  for (int64_t i = 0; i < c.out.numel; ++i) xg[i] += og[i];
}

void GradReverseBackward(const Call& c) {
  const float* og = c.out.grad;
  float* xg = c.in[0].grad;
  float lambda = c.f0;
  for (int64_t i = 0; i < c.out.numel; ++i) xg[i] -= lambda * og[i];
}

void DropoutWorkspace(const Call& c, Workspace* ws) {
  ws->f[0].assign(Count(c.out), 0.0f);  // mask
}

void DropoutForward(const Call& c) {
  const float* x = c.in[0].data;
  float* out = c.out.data;
  float* mask = c.ws->f[0].data();
  float keep_scale = 1.0f / (1.0f - c.f0);
  // Serial, one Bernoulli per element: the mask consumes the caller's RNG
  // stream independently of threading.
  for (size_t i = 0; i < Count(c.out); ++i) {
    mask[i] = c.rng->Bernoulli(c.f0) ? 0.0f : keep_scale;
    out[i] = x[i] * mask[i];
  }
}

void DropoutBackward(const Call& c) {
  const float* og = c.out.grad;
  const float* mask = c.ws->f[0].data();
  float* xg = c.in[0].grad;
  ParallelElems(Count(c.out), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) xg[i] += og[i] * mask[i];
  });
}

// --- matrix ----------------------------------------------------------------

void MatMulForward(const Call& c) {
  int m = c.in[0].dim(0), k = c.in[0].dim(1), n = c.in[1].dim(1);
  std::fill(c.out.data, c.out.data + c.out.numel, 0.0f);
  GemmNN(c.in[0].data, c.in[1].data, c.out.data, m, k, n);
}

void MatMulBackward(const Call& c) {
  int m = c.in[0].dim(0), k = c.in[0].dim(1), n = c.in[1].dim(1);
  const float* og = c.out.grad;
  // dA[M,K] += dOut[M,N] * B[K,N]^T
  if (c.in[0].grad != nullptr) {
    GemmNT(og, c.in[1].data, c.in[0].grad, m, n, k);
  }
  // dB[K,N] += A[M,K]^T * dOut[M,N]
  if (c.in[1].grad != nullptr) {
    GemmTN(c.in[0].data, og, c.in[1].grad, k, m, n);
  }
}

int64_t MatMulWork(const Call& c) {
  return 2 * c.out.numel * c.in[0].dim(1);
}

void ConcatColsForward(const Call& c) {
  int rows = c.out.dim(0);
  int total_cols = c.out.dim(1);
  int col_offset = 0;
  for (const Operand& part : c.in) {
    int cols = part.dim(1);
    for (int r = 0; r < rows; ++r) {
      std::copy(part.data + static_cast<size_t>(r) * cols,
                part.data + static_cast<size_t>(r + 1) * cols,
                c.out.data + static_cast<size_t>(r) * total_cols + col_offset);
    }
    col_offset += cols;
  }
}

void ConcatColsBackward(const Call& c) {
  int rows = c.out.dim(0);
  int total_cols = c.out.dim(1);
  int offset = 0;
  for (const Operand& part : c.in) {
    int cols = part.dim(1);
    if (part.grad != nullptr) {
      for (int r = 0; r < rows; ++r) {
        const float* src =
            c.out.grad + static_cast<size_t>(r) * total_cols + offset;
        float* dst = part.grad + static_cast<size_t>(r) * cols;
        for (int col = 0; col < cols; ++col) dst[col] += src[col];
      }
    }
    offset += cols;
  }
}

void ConcatRowsForward(const Call& c) {
  size_t offset = 0;
  for (const Operand& part : c.in) {
    std::copy(part.data, part.data + part.numel, c.out.data + offset);
    offset += Count(part);
  }
}

void ConcatRowsBackward(const Call& c) {
  size_t offset = 0;
  for (const Operand& part : c.in) {
    if (part.grad != nullptr) {
      for (size_t i = 0; i < Count(part); ++i) {
        part.grad[i] += c.out.grad[offset + i];
      }
    }
    offset += Count(part);
  }
}

// --- embedding and pooling -------------------------------------------------

void GatherForward(const Call& c) {
  const std::vector<int>& ids = *c.ints;
  int vocab = c.in[0].dim(0);
  int width = c.in[0].dim(1);
  for (int id : ids) {
    OM_CHECK(id >= 0 && id < vocab) << "Gather id " << id << " of " << vocab;
  }
  const float* tv = c.in[0].data;
  float* out = c.out.data;
  ParallelFor(0, static_cast<int64_t>(ids.size()),
              std::max<int64_t>(1, kElemGrain / width),
              [&](int64_t r0, int64_t r1) {
                for (int64_t r = r0; r < r1; ++r) {
                  std::copy(tv + static_cast<size_t>(ids[r]) * width,
                            tv + static_cast<size_t>(ids[r] + 1) * width,
                            out + static_cast<size_t>(r) * width);
                }
              });
}

void GatherBackward(const Call& c) {
  const std::vector<int>& ids = *c.ints;
  int vocab = c.in[0].dim(0);
  int width = c.in[0].dim(1);
  float* tg = c.in[0].grad;
  const float* og = c.out.grad;
  // Scatter-add sharded by destination row: a chunk owns the table rows in
  // [lo, hi) and walks the id list in order, accumulating only the ids it
  // owns. Every table row is updated by exactly one chunk with a fixed
  // accumulation order, so the result is race-free and bit-identical for
  // any thread count. Each chunk rescans the id list, which is cheap next
  // to the touched gradient rows; the scan also keeps the naturally sparse
  // structure (only referenced rows are written) without a sort or
  // per-thread buffers.
  int64_t work = static_cast<int64_t>(ids.size()) * width;
  int64_t shard_rows =
      work < kElemGrain
          ? vocab  // single shard: plain serial scatter
          : std::max<int64_t>(64, vocab / (GetNumThreads() * 4));
  ParallelFor(0, vocab, shard_rows, [&](int64_t lo, int64_t hi) {
    for (size_t r = 0; r < ids.size(); ++r) {
      int id = ids[r];
      if (id < lo || id >= hi) continue;
      float* dst = tg + static_cast<size_t>(id) * width;
      const float* src = og + r * width;
      for (int col = 0; col < width; ++col) dst[col] += src[col];
    }
  });
}

void MeanAxis1Forward(const Call& c) {
  int batch = c.in[0].dim(0);
  int length = c.in[0].dim(1);
  int width = c.in[0].dim(2);
  const float* xv = c.in[0].data;
  float* out = c.out.data;
  float inv = 1.0f / static_cast<float>(length);
  int64_t per_doc = static_cast<int64_t>(length) * width;
  std::fill(out, out + c.out.numel, 0.0f);
  ParallelFor(0, batch, std::max<int64_t>(1, kElemGrain / per_doc),
              [&](int64_t b0, int64_t b1) {
                for (int64_t b = b0; b < b1; ++b) {
                  float* orow = out + static_cast<size_t>(b) * width;
                  for (int l = 0; l < length; ++l) {
                    const float* row =
                        xv + (static_cast<size_t>(b) * length + l) * width;
                    for (int e = 0; e < width; ++e) orow[e] += row[e];
                  }
                  for (int e = 0; e < width; ++e) orow[e] *= inv;
                }
              });
}

void MeanAxis1Backward(const Call& c) {
  int batch = c.in[0].dim(0);
  int length = c.in[0].dim(1);
  int width = c.in[0].dim(2);
  const float* og = c.out.grad;
  float* xg = c.in[0].grad;
  float inv = 1.0f / static_cast<float>(length);
  int64_t per_doc = static_cast<int64_t>(length) * width;
  ParallelFor(0, batch, std::max<int64_t>(1, kElemGrain / per_doc),
              [&](int64_t b0, int64_t b1) {
                for (int64_t b = b0; b < b1; ++b) {
                  const float* grow = og + static_cast<size_t>(b) * width;
                  for (int l = 0; l < length; ++l) {
                    float* row =
                        xg + (static_cast<size_t>(b) * length + l) * width;
                    for (int e = 0; e < width; ++e) row[e] += inv * grow[e];
                  }
                }
              });
}

// --- text convolution ------------------------------------------------------

int64_t ConvSlabFloats(const Call& c) {
  int windows = c.in[0].dim(1) - c.i0 + 1;
  return static_cast<int64_t>(windows) * c.in[1].dim(0);
}

void TextConvWorkspace(const Call& c, Workspace* ws) {
  ws->i[0].assign(Count(c.out), 0);  // argmax window per (batch, channel)
}

int64_t TextConvScratch(const Call& c) {
  return c.in[0].dim(0) * ConvSlabFloats(c);
}

int64_t TextConvWork(const Call& c) {
  return 2 * TextConvScratch(c) * c.i0 * c.in[0].dim(2);
}

void TextConvForward(const Call& c) {
  int batch = c.in[0].dim(0);
  int length = c.in[0].dim(1);
  int embed = c.in[0].dim(2);
  int channels = c.in[1].dim(0);
  int filter_len = c.i0 * embed;
  int windows = length - c.i0 + 1;
  const float* x = c.in[0].data;
  const float* w = c.in[1].data;
  const float* bvec = c.in[2].data;
  float* out = c.out.data;
  int* argmax = c.ws->i[0].data();
  int64_t slab = ConvSlabFloats(c);
  // Batch-parallel: each document's scores GEMM + max-pool is independent.
  ParallelFor(0, batch, 1, [&](int64_t b0, int64_t b1) {
    std::vector<float> chunk_scores(c.scratch == nullptr ? slab : 0);
    for (int64_t b = b0; b < b1; ++b) {
      float* scores =
          c.scratch != nullptr ? c.scratch + b * slab : chunk_scores.data();
      std::fill(scores, scores + slab, 0.0f);
      const float* doc = x + static_cast<size_t>(b) * length * embed;
      // scores[t, c] = <doc window t, filter c>; windows overlap via
      // lda=embed.
      GemmNTStrided(doc, embed, w, scores, windows, filter_len, channels);
      for (int ch = 0; ch < channels; ++ch) {
        float best = scores[ch];
        int best_t = 0;
        for (int t = 1; t < windows; ++t) {
          float v = scores[static_cast<size_t>(t) * channels + ch];
          if (v > best) {
            best = v;
            best_t = t;
          }
        }
        best += bvec[ch];
        // max-over-time then ReLU == ReLU then max (ReLU is monotone).
        out[static_cast<size_t>(b) * channels + ch] = best > 0.0f ? best : 0.0f;
        argmax[static_cast<size_t>(b) * channels + ch] = best_t;
      }
    }
  });
}

void TextConvBackward(const Call& c) {
  int batch = c.in[0].dim(0);
  int length = c.in[0].dim(1);
  int embed = c.in[0].dim(2);
  int channels = c.in[1].dim(0);
  int filter_len = c.in[1].dim(1);
  float* xg = c.in[0].grad;
  float* wg = c.in[1].grad;
  float* bg = c.in[2].grad;
  const float* od = c.out.data;
  const float* og = c.out.grad;
  const int* argmax = c.ws->i[0].data();
  // Two sharded passes instead of one serial loop: documents own their
  // input-gradient rows (windows of different channels may overlap inside
  // one document, but never across documents), and channels own their
  // filter/bias gradient rows. Both passes walk the other axis in ascending
  // order, so gradients are bit-identical for any thread count.
  if (xg != nullptr) {
    const float* wd = c.in[1].data;
    ParallelFor(0, batch, 1, [&](int64_t b0, int64_t b1) {
      for (int64_t b = b0; b < b1; ++b) {
        float* ddoc = xg + static_cast<size_t>(b) * length * embed;
        for (int ch = 0; ch < channels; ++ch) {
          size_t oc = static_cast<size_t>(b) * channels + ch;
          float g = og[oc];
          if (g == 0.0f || od[oc] <= 0.0f) continue;
          const float* wrow = wd + static_cast<size_t>(ch) * filter_len;
          float* dwin = ddoc + static_cast<size_t>(argmax[oc]) * embed;
          for (int j = 0; j < filter_len; ++j) dwin[j] += g * wrow[j];
        }
      }
    });
  }
  if (wg != nullptr || bg != nullptr) {
    const float* xd = c.in[0].data;
    ParallelFor(0, channels, 1, [&](int64_t c0, int64_t c1) {
      for (int64_t ch = c0; ch < c1; ++ch) {
        for (int b = 0; b < batch; ++b) {
          size_t oc = static_cast<size_t>(b) * channels + ch;
          float g = og[oc];
          if (g == 0.0f || od[oc] <= 0.0f) continue;
          if (bg != nullptr) bg[ch] += g;
          if (wg != nullptr) {
            float* dwrow = wg + static_cast<size_t>(ch) * filter_len;
            const float* win =
                xd + (static_cast<size_t>(b) * length + argmax[oc]) * embed;
            for (int j = 0; j < filter_len; ++j) dwrow[j] += g * win[j];
          }
        }
      }
    });
  }
}

// --- losses ----------------------------------------------------------------

void SoftmaxCrossEntropyWorkspace(const Call& c, Workspace* ws) {
  size_t batch = static_cast<size_t>(c.in[0].dim(0));
  ws->f[0].assign(batch * static_cast<size_t>(c.in[0].dim(1)), 0.0f);  // probs
  ws->f[1].assign(batch, 0.0f);  // per-row loss
}

void SoftmaxCrossEntropyForward(const Call& c) {
  int batch = c.in[0].dim(0);
  int classes = c.in[0].dim(1);
  const std::vector<int>& labels = *c.ints;
  for (int y : labels) OM_CHECK(y >= 0 && y < classes) << "label " << y;
  const float* x = c.in[0].data;
  float* probs = c.ws->f[0].data();
  float* row_loss = c.ws->f[1].data();
  // Row-parallel softmax; per-row losses are combined serially in index
  // order so the scalar is thread-count invariant.
  ParallelFor(0, batch, 64, [&](int64_t b0, int64_t b1) {
    for (int64_t b = b0; b < b1; ++b) {
      const float* row = x + static_cast<size_t>(b) * classes;
      float* prow = probs + static_cast<size_t>(b) * classes;
      float max_v = row[0];
      for (int k = 1; k < classes; ++k) max_v = std::max(max_v, row[k]);
      float sum = 0.0f;
      for (int k = 0; k < classes; ++k) {
        prow[k] = std::exp(row[k] - max_v);
        sum += prow[k];
      }
      float inv = 1.0f / sum;
      for (int k = 0; k < classes; ++k) prow[k] *= inv;
      row_loss[b] = -std::log(std::max(prow[labels[b]], 1e-12f));
    }
  });
  double total = 0.0;
  for (int b = 0; b < batch; ++b) total += row_loss[b];
  c.out.data[0] = static_cast<float>(total / batch);
}

void SoftmaxCrossEntropyBackward(const Call& c) {
  int batch = c.in[0].dim(0);
  int classes = c.in[0].dim(1);
  const float* probs = c.ws->f[0].data();
  float* lg = c.in[0].grad;
  float g = c.out.grad[0] / static_cast<float>(batch);
  for (int b = 0; b < batch; ++b) {
    const float* prow = probs + static_cast<size_t>(b) * classes;
    float* drow = lg + static_cast<size_t>(b) * classes;
    int y = (*c.ints)[b];
    for (int k = 0; k < classes; ++k) {
      drow[k] += g * (prow[k] - (k == y ? 1.0f : 0.0f));
    }
  }
}

void SupConWorkspace(const Call& c, Workspace* ws) {
  size_t batch = static_cast<size_t>(c.in[0].dim(0));
  size_t dim = static_cast<size_t>(c.in[0].dim(1));
  ws->f[0].assign(batch * dim, 0.0f);    // L2-normalized features
  ws->f[1].assign(batch, 0.0f);          // row norms
  ws->f[2].assign(batch * batch, 0.0f);  // similarities / tau
  ws->f[3].assign(batch * batch, 0.0f);  // probs (diagonal stays 0)
  ws->f[4].assign(batch, 0.0f);          // log-sum-exp per anchor
  ws->f[5].assign(batch * batch, 0.0f);  // dL/ds
  ws->f[6].assign(batch * batch, 0.0f);  // (G + G^T) / tau
  ws->f[7].assign(batch * dim, 0.0f);    // dL/d(normalized features)
  ws->d.assign(batch, 0.0);              // per-anchor loss
  ws->i[0].assign(batch, 0);             // positives per anchor
  ws->i[1].assign(1, 0);                 // anchors with a positive
}

int64_t SupConWork(const Call& c) {
  int64_t rows = c.in[0].dim(0);
  return 2 * rows * rows * (c.in[0].dim(1) + 4);
}

void SupConForward(const Call& c) {
  int batch = c.in[0].dim(0);
  int dim = c.in[0].dim(1);
  const std::vector<int>& labels = *c.ints;
  const float* z = c.in[0].data;
  Workspace& ws = *c.ws;
  float* norm_feats = ws.f[0].data();
  float* norms = ws.f[1].data();
  float* sims = ws.f[2].data();
  float* probs = ws.f[3].data();
  float* lse = ws.f[4].data();
  double* anchor_loss = ws.d.data();
  int* pos_count = ws.i[0].data();
  // 1. L2-normalize rows.
  ParallelFor(0, batch, 8, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      const float* row = z + static_cast<size_t>(i) * dim;
      double sq = 0.0;
      for (int d = 0; d < dim; ++d) sq += static_cast<double>(row[d]) * row[d];
      float norm = static_cast<float>(std::sqrt(sq)) + 1e-8f;
      norms[i] = norm;
      float* nrow = norm_feats + static_cast<size_t>(i) * dim;
      for (int d = 0; d < dim; ++d) nrow[d] = row[d] / norm;
    }
  });

  // 2. Similarities s_ij = <ẑ_i, ẑ_j> / τ and softmax denominators over
  //    A(i) = all j != i. Shifted by the row max for stability. The full
  //    Gram matrix Ẑ Ẑ^T is one GEMM; the diagonal comes along for free and
  //    every later pass skips it.
  const float inv_tau = 1.0f / c.f0;
  size_t bb = static_cast<size_t>(batch) * batch;
  std::fill(sims, sims + bb, 0.0f);
  GemmNT(norm_feats, norm_feats, sims, batch, dim, batch);
  for (size_t i = 0; i < bb; ++i) sims[i] *= inv_tau;

  // p_ij = exp(s_ij) / sum_{a != i} exp(s_ia); kept for backward. Each
  // anchor row is owned by one chunk, so probs/lse are deterministic. The
  // diagonal of probs is only ever multiplied, never written, so it keeps
  // the 0.0f the workspace was sized with.
  ParallelFor(0, batch, 8, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      float max_v = -1e30f;
      for (int j = 0; j < batch; ++j) {
        if (j != i) {
          max_v = std::max(max_v, sims[static_cast<size_t>(i) * batch + j]);
        }
      }
      double sum = 0.0;
      for (int j = 0; j < batch; ++j) {
        if (j == i) continue;
        double e = std::exp(sims[static_cast<size_t>(i) * batch + j] - max_v);
        probs[static_cast<size_t>(i) * batch + j] = static_cast<float>(e);
        sum += e;
      }
      lse[i] = max_v + static_cast<float>(std::log(sum));
      float inv = static_cast<float>(1.0 / sum);
      for (int j = 0; j < batch; ++j) {
        probs[static_cast<size_t>(i) * batch + j] *= inv;
      }
    }
  });

  // 3. Per-anchor loss over P(i) = {p != i : label_p == label_i}. Per-anchor
  //    partials are combined serially in index order so the scalar loss is
  //    independent of the thread count.
  ParallelFor(0, batch, 8, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      int cnt = 0;
      double pos_sum = 0.0;
      for (int j = 0; j < batch; ++j) {
        if (j != i && labels[j] == labels[i]) {
          ++cnt;
          pos_sum += sims[static_cast<size_t>(i) * batch + j];
        }
      }
      pos_count[i] = cnt;
      if (cnt > 0) anchor_loss[i] = -(pos_sum / cnt - lse[i]);
    }
  });
  int valid_anchors = 0;
  double total = 0.0;
  for (int i = 0; i < batch; ++i) {
    if (pos_count[i] > 0) {
      ++valid_anchors;
      total += anchor_loss[i];
    }
  }
  // Callers route batches without a positive pair around the op (the loss
  // is a constant zero there), so every batch that reaches it has one.
  OM_CHECK_GT(valid_anchors, 0) << "SupConLoss: batch has no positive pairs";
  ws.i[1][0] = valid_anchors;
  c.out.data[0] = static_cast<float>(total / valid_anchors);
}

void SupConBackward(const Call& c) {
  int batch = c.in[0].dim(0);
  int dim = c.in[0].dim(1);
  const std::vector<int>& labels = *c.ints;
  Workspace& ws = *c.ws;
  const float* norm_feats = ws.f[0].data();
  const float* norms = ws.f[1].data();
  const float* probs = ws.f[3].data();
  float* gmat = ws.f[5].data();
  float* sym = ws.f[6].data();
  float* dnorm = ws.f[7].data();
  const int* pos_count = ws.i[0].data();
  float* dst_base = c.in[0].grad;
  const float inv_tau = 1.0f / c.f0;
  float gscale = c.out.grad[0] / static_cast<float>(ws.i[1][0]);
  size_t bb = static_cast<size_t>(batch) * batch;
  // g_ij = dL/ds_ij for anchor i (0 on the diagonal and for anchors without
  // positives, hence the re-zeroing). Anchor rows are independent.
  std::fill(gmat, gmat + bb, 0.0f);
  ParallelFor(0, batch, 8, [&](int64_t i0, int64_t i1) {
    for (int64_t i = i0; i < i1; ++i) {
      int cnt = pos_count[i];
      if (cnt == 0) continue;
      float inv_cnt = 1.0f / static_cast<float>(cnt);
      for (int j = 0; j < batch; ++j) {
        if (j == i) continue;
        float g = probs[static_cast<size_t>(i) * batch + j];
        if (labels[j] == labels[i]) g -= inv_cnt;
        gmat[static_cast<size_t>(i) * batch + j] = g * gscale;
      }
    }
  });
  // dL/dẑ = (1/τ) (G + G^T) Ẑ — symmetrize, then one GEMM. The diagonal of
  // G is zero, so no j == k exclusion is needed.
  ParallelFor(0, batch, 8, [&](int64_t k0, int64_t k1) {
    for (int64_t k = k0; k < k1; ++k) {
      for (int j = 0; j < batch; ++j) {
        sym[static_cast<size_t>(k) * batch + j] =
            (gmat[static_cast<size_t>(k) * batch + j] +
             gmat[static_cast<size_t>(j) * batch + k]) *
            inv_tau;
      }
    }
  });
  std::fill(dnorm, dnorm + static_cast<size_t>(batch) * dim, 0.0f);
  GemmNN(sym, norm_feats, dnorm, batch, batch, dim);
  // Chain through the normalization ẑ = z/||z||:
  // dz = (dẑ - (dẑ·ẑ) ẑ) / ||z||. Feature rows are independent.
  ParallelFor(0, batch, 8, [&](int64_t k0, int64_t k1) {
    for (int64_t k = k0; k < k1; ++k) {
      const float* zk = norm_feats + static_cast<size_t>(k) * dim;
      const float* dk = dnorm + static_cast<size_t>(k) * dim;
      float* dst = dst_base + static_cast<size_t>(k) * dim;
      float dot = 0.0f;
      for (int d = 0; d < dim; ++d) dot += dk[d] * zk[d];
      float inv_norm = 1.0f / norms[k];
      for (int d = 0; d < dim; ++d) {
        dst[d] += (dk[d] - dot * zk[d]) * inv_norm;
      }
    }
  });
}

// --- the table -------------------------------------------------------------

constexpr size_t kNumOpKinds = static_cast<size_t>(OpKind::kNop) + 1;

std::array<OpInfo, kNumOpKinds> BuildTable() {
  std::array<OpInfo, kNumOpKinds> t;
  auto row = [&t](OpKind kind) -> OpInfo& {
    return t[static_cast<size_t>(kind)];
  };
  row(OpKind::kLeaf) = {.name = "Leaf"};
  row(OpKind::kAdd) = {
      .name = "Add", .forward = AddForward, .backward = AddBackward};
  row(OpKind::kMul) = {.name = "Mul",
                       .forward = MulForward,
                       .backward = MulBackward,
                       .bwd_reads = kReadsIn0 | kReadsIn1};
  row(OpKind::kScale) = {
      .name = "Scale", .forward = ScaleForward, .backward = ScaleBackward};
  row(OpKind::kAddRowBroadcast) = {.name = "AddRowBroadcast",
                                   .forward = AddRowBroadcastForward,
                                   .backward = AddRowBroadcastBackward};
  row(OpKind::kRelu) = {.name = "Relu",
                        .forward = ReluForward,
                        .backward = ReluBackward,
                        .bwd_reads = kReadsIn0};
  row(OpKind::kReshape) = {
      .name = "Reshape", .forward = CopyForward, .backward = ReshapeBackward};
  row(OpKind::kDropout) = {.name = "Dropout",
                           .forward = DropoutForward,
                           .backward = DropoutBackward,
                           .size_workspace = DropoutWorkspace};
  row(OpKind::kMatMul) = {.name = "MatMul",
                          .forward = MatMulForward,
                          .backward = MatMulBackward,
                          .bwd_reads = kReadsIn0 | kReadsIn1,
                          .work = MatMulWork};
  row(OpKind::kConcatCols) = {.name = "ConcatCols",
                              .forward = ConcatColsForward,
                              .backward = ConcatColsBackward};
  row(OpKind::kConcatRows) = {.name = "ConcatRows",
                              .forward = ConcatRowsForward,
                              .backward = ConcatRowsBackward};
  row(OpKind::kGather) = {
      .name = "Gather", .forward = GatherForward, .backward = GatherBackward};
  row(OpKind::kMeanAxis1) = {.name = "MeanAxis1",
                             .forward = MeanAxis1Forward,
                             .backward = MeanAxis1Backward};
  row(OpKind::kGradReverse) = {.name = "GradReverse",
                               .forward = CopyForward,
                               .backward = GradReverseBackward};
  row(OpKind::kTextConvMaxPool) = {.name = "TextConvMaxPool",
                                   .forward = TextConvForward,
                                   .backward = TextConvBackward,
                                   .bwd_reads =
                                       kReadsIn0 | kReadsIn1 | kReadsOut,
                                   .size_workspace = TextConvWorkspace,
                                   .scratch_floats = TextConvScratch,
                                   .work = TextConvWork};
  row(OpKind::kSoftmaxCrossEntropy) = {
      .name = "SoftmaxCrossEntropy",
      .forward = SoftmaxCrossEntropyForward,
      .backward = SoftmaxCrossEntropyBackward,
      .size_workspace = SoftmaxCrossEntropyWorkspace};
  row(OpKind::kSupConLoss) = {.name = "SupConLoss",
                              .forward = SupConForward,
                              .backward = SupConBackward,
                              .size_workspace = SupConWorkspace,
                              .work = SupConWork};
  // Gather + Reshape fused: the Gather kernels writing the reshape node's
  // [B, L, E] buffer directly.
  row(OpKind::kGatherReshape) = row(OpKind::kGather);
  row(OpKind::kGatherReshape).name = "GatherReshape";
  row(OpKind::kNop) = {.name = "Nop"};
  return t;
}

/// Tape nodes allocated by eager ops. Replayed graph steps allocate none:
/// the ratio of this counter to steps is the zero-alloc evidence surfaced
/// in the metrics snapshot and BENCH_graph.json.
obs::Counter* NodeAllocCounter() {
  static obs::Counter* const counter =
      obs::MetricsRegistry::Global().GetCounter("nn.tensor_node_allocs");
  return counter;
}

Operand OperandOf(TensorImpl* t, bool with_grad) {
  return {t->data.data(), with_grad ? t->grad.data() : nullptr, &t->shape,
          static_cast<int64_t>(t->data.size())};
}

}  // namespace

const OpInfo& Info(OpKind kind) {
  static const std::array<OpInfo, kNumOpKinds> table = BuildTable();
  return table[static_cast<size_t>(kind)];
}

Tensor MakeOutput(std::vector<int> shape,
                  std::vector<std::shared_ptr<TensorImpl>> parents) {
  NodeAllocCounter()->Increment();
  auto out = std::make_shared<TensorImpl>();
  out->shape = std::move(shape);
  out->data.assign(static_cast<size_t>(ShapeNumel(out->shape)), 0.0f);
  bool needs_grad = false;
  for (const auto& p : parents) needs_grad = needs_grad || p->requires_grad;
  out->requires_grad = needs_grad;
  if (needs_grad) out->parents = std::move(parents);
  return Tensor(std::move(out));
}

bool TryReplay(OpKind kind, const Tensor* const* inputs, int num_inputs,
               const graph::OpArgs& args, Tensor* out) {
  graph::Session* session = graph::ActiveReplay();
  if (session == nullptr) return false;
  *out = graph::Replay(session, kind, inputs, num_inputs, args);
  return true;
}

Tensor RunEager(OpKind kind, const Tensor* const* inputs, int num_inputs,
                std::vector<int> out_shape, const graph::OpArgs& args) {
  const OpInfo& info = Info(kind);
  std::vector<std::shared_ptr<TensorImpl>> parents;
  parents.reserve(static_cast<size_t>(num_inputs));
  for (int i = 0; i < num_inputs; ++i) parents.push_back(inputs[i]->impl());
  Tensor out = MakeOutput(std::move(out_shape), std::move(parents));

  Call call;
  call.out = OperandOf(out.impl().get(), false);
  call.in.reserve(static_cast<size_t>(num_inputs));
  for (int i = 0; i < num_inputs; ++i) {
    call.in.push_back(OperandOf(inputs[i]->impl().get(), false));
  }
  call.f0 = args.f0;
  call.i0 = args.i0;
  call.rng = args.rng;
  call.ints = args.ints;
  std::shared_ptr<Workspace> ws;
  if (info.size_workspace != nullptr) {
    ws = std::make_shared<Workspace>();
    info.size_workspace(call, ws.get());
    call.ws = ws.get();
  }
  info.forward(call);

  if (out.requires_grad()) {
    TensorImpl* o = out.impl().get();
    std::vector<int> ints;
    if (args.ints != nullptr) ints = *args.ints;
    // Backward binds the same storage via the parent edges (which are the
    // op's inputs, in order, whenever a gradient is needed).
    o->backward_fn = [o, kind, f0 = args.f0, i0 = args.i0,
                      ints = std::move(ints), ws = std::move(ws)]() {
      Call c;
      o->EnsureGrad();
      c.out = OperandOf(o, true);
      c.in.reserve(o->parents.size());
      for (const auto& parent : o->parents) {
        if (parent->requires_grad) parent->EnsureGrad();
        c.in.push_back(OperandOf(parent.get(), parent->requires_grad));
      }
      c.f0 = f0;
      c.i0 = i0;
      c.ints = &ints;
      c.ws = ws.get();
      Info(kind).backward(c);
    };
  }
  if (graph::Session* session = graph::ActiveRecording()) {
    graph::Record(session, kind, inputs, num_inputs, out, args);
  }
  return out;
}

}  // namespace kernels
}  // namespace nn
}  // namespace omnimatch
