#ifndef SQLFACIL_NN_SIMD_H_
#define SQLFACIL_NN_SIMD_H_

#include <cstddef>
#include <string>

namespace sqlfacil::nn::simd {

/// Runtime SIMD dispatch for the float kernels below, in three levels:
/// scalar, AVX2 (8-float ymm) and AVX-512 (16-float zmm). The AVX-512 level
/// has zmm variants of the kernels the LSTM step and LSTM training run
/// (MatMulRows, MatMulGradBRows, LstmGates, SigmoidInPlace, TanhInPlace,
/// LstmCellForward); every other kernel runs its AVX2 variant there.
///
/// Determinism contract (extends the thread-count contract of
/// util/thread_pool.h): the scalar kernels are the specification, and every
/// vector variant performs the same per-element IEEE operations in the same
/// order, so results are bit-identical at every level.
///   - One rounding per multiply and one per add: FMA is never used. AVX-512F
///     includes FMA, so the library builds with -ffp-contract=off and
///     scripts/ci.sh fails on any FMA instruction in it.
///   - Elementwise kernels (Axpy, AddAcc, SubAcc, Mul, MulAcc, Scale, Relu)
///     touch each element independently; lane-parallel evaluation cannot
///     reorder anything.
///   - Dot is a reduction and uses a fixed 8-lane decomposition: lane l
///     accumulates elements l, l+8, l+16, ... and the eight partials are
///     combined in one documented tree order. The scalar fallback implements
///     the identical decomposition, so the sum is bit-identical to the AVX2
///     accumulator-register version at any length.
///   - NaN: each max/min is the scalar std::max/std::min with its NaN and
///     tie rules (std::max(a, b) is maxps(b, a)), so a NaN input gives NaN,
///     or the same number, at every level. A NaN's sign and payload are not
///     part of the contract: when two NaNs meet, x86 returns the first
///     operand's, and the compiler orders commutative operands freely.

/// Dispatch levels, ordered: a level runs the variant of the highest level
/// at or below it that a kernel has.
enum class Level { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// The active dispatch level. Initialized on first use to the best level the
/// CPU supports, capped by SQLFACIL_SIMD (0 scalar, 1 AVX2).
Level GetLevel();

/// Sets the dispatch level, clamped to the best level the CPU supports; for
/// tests and benches. Must not race with running kernels.
void SetLevel(Level level);

/// One-line dispatch report: the CPU's best level and the level the float
/// and the int8 kernels run at, so a fall back to the scalar reference
/// kernels is never silent.
std::string DispatchReport();

/// Logs DispatchReport() to stderr exactly once per process. The model
/// inference entry points call this on their first prediction.
void LogDispatchOnce();

/// dst[i] += a * x[i]
void Axpy(float* dst, const float* x, float a, size_t n);

/// dst[i] += x[i]
void AddAcc(float* dst, const float* x, size_t n);

/// dst[i] -= x[i]
void SubAcc(float* dst, const float* x, size_t n);

/// dst[i] *= x[i]
void Mul(float* dst, const float* x, size_t n);

/// dst[i] += x[i] * y[i]
void MulAcc(float* dst, const float* x, const float* y, size_t n);

/// dst[i] *= s
void Scale(float* dst, float s, size_t n);

/// dst[i] = dst[i] > 0 ? dst[i] : 0
void Relu(float* dst, size_t n);

/// dst[i] += g[i] * (y[i] * (1 - y[i]))   (sigmoid grad from the output y)
void SigmoidGradAcc(float* dst, const float* g, const float* y, size_t n);

/// dst[i] += g[i] * (1 - y[i] * y[i])     (tanh grad from the output y)
void TanhGradAcc(float* dst, const float* g, const float* y, size_t n);

/// dst[i] += y[i] > 0 ? g[i] : 0          (relu grad from the output y)
void ReluGradAcc(float* dst, const float* g, const float* y, size_t n);

/// v[i] = 1 / (1 + exp(-v[i])) using the shared polynomial exp.
///
/// The polynomial IS the activation definition here, not an approximation
/// detail: exp(x) = 2^n * P(r) with n = nearbyint(x*log2e), r the residual,
/// and P a degree-7 Taylor of 2^r, all evaluated as the same fixed Horner
/// mul/add sequence at every level (accuracy vs libm ~1 ulp). All levels
/// therefore agree bit-for-bit, which libm's exp/tanh cannot promise. A NaN
/// input stays NaN (the clamp keeps it, and the scale is 2^0).
void SigmoidInPlace(float* v, size_t n);

/// v[i] = tanh(v[i]) as (e - 1) / (e + 1) on e = shared-poly exp(2*v[i]).
void TanhInPlace(float* v, size_t n);

/// Fused LSTM cell state update over one row of hidden units:
///   co[i] = u[i]*cand[i] + f[i]*ci[i];  ho[i] = o[i] * tanh(co[i])
/// with the shared-poly tanh above. Gates must already be activated.
void LstmCellForward(const float* u, const float* f, const float* o,
                     const float* cand, const float* ci, float* co, float* ho,
                     size_t n);

/// Fused LSTM gate pre-activation for rows [row_begin, row_end):
///   gates[i] = x[i] @ Wx + bias + h[i] @ Wh
/// with Wx (in_dim x n) and Wh (hidden_dim x n) row-major. Per element the
/// terms accumulate in exactly that order — Wx products k-ascending, then
/// the bias, then Wh products k-ascending, one rounding per mul and per add,
/// zero x/h entries skipped — at every level, in one register-resident
/// sweep (the AVX-512 variant holds all 128 gate columns of the 32-unit
/// LSTM in eight zmm).
void LstmGates(const float* x, const float* wx, const float* bias,
               const float* h, const float* wh, float* gates,
               size_t row_begin, size_t row_end, int in_dim, int hidden_dim,
               int n);

/// Fused LSTM cell backward over one row: given activated gates u/f/o/cand,
/// saved cell states co (post) and ci (pre, zeros at t == 0), and incoming
/// dh/dc, writes the four pre-activation gate grads and the grad w.r.t. the
/// previous cell state:
///   tc   = tanh(co[i])                       (shared-poly tanh)
///   dcT  = dc[i] + (dh[i]*o[i]) * (1 - tc*tc)
///   dci[i] = dcT * f[i]
///   dgu[i] = (dcT * cand[i]) * (u[i] * (1 - u[i]))
///   dgf[i] = (dcT * ci[i])   * (f[i] * (1 - f[i]))
///   dgo[i] = (dh[i] * tc)    * (o[i] * (1 - o[i]))
///   dgc[i] = (dcT * u[i])    * (1 - cand[i]*cand[i])
void LstmCellBackward(const float* u, const float* f, const float* o,
                      const float* cand, const float* co, const float* ci,
                      const float* dh, const float* dc, float* dgu, float* dgf,
                      float* dgo, float* dgc, float* dci, size_t n);

/// w[i] -= lr * (g[i] + wd * w[i])        (plain SGD with coupled decay)
void SgdStep(float* w, const float* g, float lr, float wd, size_t n);

/// One Adam update on a flat slab. bc1/bc2 are the bias-correction factors
/// 1 - beta^t computed once per step by the caller. sqrt/div are IEEE
/// correctly-rounded in both paths, so the contract holds element-wise:
///   grad  = g[i] + wd * w[i]
///   m[i]  = b1*m[i] + (1-b1)*grad
///   v[i]  = b2*v[i] + ((1-b2)*grad)*grad
///   w[i] -= (lr * (m[i]/bc1)) / (sqrt(v[i]/bc2) + eps)
void AdamStep(float* w, const float* g, float* m, float* v, float beta1,
              float beta2, float bc1, float bc2, float lr, float eps,
              float wd, size_t n);

/// One AdaMax update on a flat slab (infinity-norm Adam):
///   grad  = g[i] + wd * w[i]
///   m[i]  = b1*m[i] + (1-b1)*grad
///   u[i]  = max(b2*u[i], |grad|)
///   w[i] -= (lr * (m[i]/bc1)) / (u[i] + eps)
/// max/fabs are exact bit operations, and the max is std::max's: a NaN
/// grad leaves u[i] = b2*u[i] at every level (w[i] still turns NaN).
void AdaMaxStep(float* w, const float* g, float* m, float* u, float beta1,
                float beta2, float bc1, float lr, float eps, float wd,
                size_t n);

/// Canonical 8-lane dot product (see contract above).
float Dot(const float* x, const float* y, size_t n);

/// C[rb..re) += A[rb..re) @ B for an (m x k) @ (k x n) product, saxpy form:
/// C[i][j] += A[i][kk] * B[kk][j] for kk ascending, zero A entries skipped
/// (exact: the skipped saxpy adds ±0). The vector paths keep up to 64 (AVX2)
/// or 128 (AVX-512) columns of a C row in registers across the whole k loop,
/// at every n; per output element the terms, their order and their roundings
/// are those of the scalar spec, so the result is bit-identical at every
/// level. Rows of C depend only on the same row of A, so any row partition
/// yields identical bits.
void MatMulRows(const float* A, const float* B, float* C, size_t row_begin,
                size_t row_end, int k, int n);

/// dA[rb..re) += G @ B^T for an (m x n) grad against a (k x n) B:
/// dA[i][kk] += Dot(G[i, :], B[kk, :]). Row i of dA depends only on row i of
/// G, so any row partition yields identical bits. Each element is the
/// canonical Dot; the AVX2 path (also used at the AVX-512 level) computes
/// eight of them per pass over G[i, :] and combines their lanes in registers
/// in Dot's tree order, so every level is bit-identical too.
void MatMulGradARows(const float* G, const float* B, float* dA,
                     size_t row_begin, size_t row_end, int k, int n);

/// As MatMulGradARows but assigning (dA[i][kk] = Dot(...)) instead of
/// accumulating: callers that previously zeroed dA before accumulating can
/// skip the clear — assignment produces the same bits as 0 + dot.
void MatMulGradARowsTo(const float* G, const float* B, float* dA,
                       size_t row_begin, size_t row_end, int k, int n);

/// dB[kb..ke) += A^T @ G restricted to rows kb..ke of dB (columns of A):
/// for i ascending over [0, m), dB[kk, :] += A[i][kk] * G[i, :]. Zero
/// A[i][kk] entries are skipped (exact: the skipped axpy adds ±0). Each dB
/// element accumulates its terms over i ascending for every kk partition,
/// and the vector paths hold dB row blocks in registers as MatMulRows does,
/// so the bits match across chunking and levels.
void MatMulGradBRows(const float* A, const float* G, float* dB, int m,
                     size_t k_begin, size_t k_end, int k, int n);

/// Max over time of rows [row_begin, row_end) of X (row-major, k columns;
/// row_end > row_begin): out[j] starts at X[row_begin][j], and each later
/// row i, ascending, replaces it when X[i][j] > out[j]. The comparison is
/// strict: the first row of a tie wins, a NaN never replaces a value, and
/// +0 never replaces -0. When argmax is non-null, argmax[j] receives the
/// row the final out[j] came from.
void MaxOverTime(const float* X, size_t row_begin, size_t row_end, int k,
                 float* out, int* argmax);

}  // namespace sqlfacil::nn::simd

#endif  // SQLFACIL_NN_SIMD_H_
