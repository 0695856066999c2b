#include "sqlfacil/nn/optim.h"

#include <cmath>
#include <iostream>
#include <utility>

#include "sqlfacil/models/serialize_util.h"
#include "sqlfacil/nn/simd.h"

namespace sqlfacil::nn {

namespace {

namespace ser = sqlfacil::models::serialize;

// Writes one moment tensor per parameter (same order as params_).
void WriteMoments(std::ostream& out, const std::vector<Tensor>& moments) {
  for (const auto& m : moments) ser::WriteTensor(out, m);
}

// Reads one moment tensor per parameter, validating each shape against the
// matching parameter before anything is committed.
Status ReadMoments(std::istream& in, const std::vector<Var>& params,
                   std::vector<Tensor>* out) {
  std::vector<Tensor> loaded;
  loaded.reserve(params.size());
  for (const auto& p : params) {
    auto t = ser::ReadTensor(in);
    if (!t.ok()) return t.status();
    if (!t->SameShape(p->value)) {
      return Status::CorruptCheckpoint(
          "optimizer moment shape does not match parameter shape");
    }
    loaded.push_back(std::move(*t));
  }
  *out = std::move(loaded);
  return Status::Ok();
}

}  // namespace

// Optimizer steps run as flat-slab kernels (nn/simd.h): one fused pass per
// parameter tensor, per-step scalars (bias corrections, rates) hoisted out
// of the element loop. The kernels follow the simd bit-identity contract,
// so stepped weights match exactly at every SIMD level.

Sgd::Sgd(std::vector<Var> params, float lr, float weight_decay)
    : Optimizer(std::move(params)), lr_(lr), weight_decay_(weight_decay) {}

void Sgd::Step() {
  for (auto& p : params_) {
    simd::SgdStep(p->value.data(), p->EnsureGrad().data(), lr_, weight_decay_,
                  p->value.size());
  }
}

void Sgd::SaveState(std::ostream& out) const {
  // SGD carries no per-step state; the tag alone makes resume files
  // self-describing (and mismatched optimizer kinds detectable).
  ser::WriteTag(out, "sgd_state.v1");
}

Status Sgd::LoadState(std::istream& in) {
  return ser::ExpectTag(in, "sgd_state.v1");
}

Adam::Adam(std::vector<Var> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  for (const auto& p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (size_t pi = 0; pi < params_.size(); ++pi) {
    auto& p = params_[pi];
    simd::AdamStep(p->value.data(), p->EnsureGrad().data(), m_[pi].data(),
                   v_[pi].data(), beta1_, beta2_, bc1, bc2, lr_, eps_,
                   weight_decay_, p->value.size());
  }
}

void Adam::SaveState(std::ostream& out) const {
  ser::WriteTag(out, "adam_state.v1");
  ser::WriteI32(out, t_);
  WriteMoments(out, m_);
  WriteMoments(out, v_);
}

Status Adam::LoadState(std::istream& in) {
  if (auto s = ser::ExpectTag(in, "adam_state.v1"); !s.ok()) return s;
  auto t = ser::ReadI32(in);
  if (!t.ok()) return t.status();
  if (*t < 0) return Status::CorruptCheckpoint("negative Adam step counter");
  std::vector<Tensor> m, v;
  if (auto s = ReadMoments(in, params_, &m); !s.ok()) return s;
  if (auto s = ReadMoments(in, params_, &v); !s.ok()) return s;
  t_ = *t;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::Ok();
}

AdaMax::AdaMax(std::vector<Var> params, float lr, float beta1, float beta2,
               float eps, float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  for (const auto& p : params_) {
    m_.emplace_back(p->value.shape());
    u_.emplace_back(p->value.shape());
  }
}

void AdaMax::Step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  for (size_t pi = 0; pi < params_.size(); ++pi) {
    auto& p = params_[pi];
    simd::AdaMaxStep(p->value.data(), p->EnsureGrad().data(), m_[pi].data(),
                     u_[pi].data(), beta1_, beta2_, bc1, lr_, eps_,
                     weight_decay_, p->value.size());
  }
}

void AdaMax::SaveState(std::ostream& out) const {
  ser::WriteTag(out, "adamax_state.v1");
  ser::WriteI32(out, t_);
  WriteMoments(out, m_);
  WriteMoments(out, u_);
}

Status AdaMax::LoadState(std::istream& in) {
  if (auto s = ser::ExpectTag(in, "adamax_state.v1"); !s.ok()) return s;
  auto t = ser::ReadI32(in);
  if (!t.ok()) return t.status();
  if (*t < 0) return Status::CorruptCheckpoint("negative AdaMax step counter");
  std::vector<Tensor> m, u;
  if (auto s = ReadMoments(in, params_, &m); !s.ok()) return s;
  if (auto s = ReadMoments(in, params_, &u); !s.ok()) return s;
  t_ = *t;
  m_ = std::move(m);
  u_ = std::move(u);
  return Status::Ok();
}

float ClipGradNorm(const std::vector<Var>& params, float max_norm) {
  double sum_sq = 0.0;
  for (const auto& p : params) {
    const float* g = p->EnsureGrad().data();
    for (size_t i = 0; i < p->grad.size(); ++i) {
      sum_sq += static_cast<double>(g[i]) * g[i];
    }
  }
  const float norm = static_cast<float>(std::sqrt(sum_sq));
  if (max_norm > 0.0f && norm > max_norm) {
    const float scale = max_norm / (norm + 1e-8f);
    for (const auto& p : params) {
      simd::Scale(p->grad.data(), scale, p->grad.size());
    }
  }
  return norm;
}

}  // namespace sqlfacil::nn
