// Tests for the neural-network substrate: matrix ops, Adam, LSTM forward
// shapes, and — critically — numerical gradient checks of the full BPTT.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "nn/lstm.h"
#include "nn/mat.h"
#include "util/rng.h"

namespace cn = comet::nn;
using comet::util::Rng;

// ---------- Mat / affine ----------

TEST(Mat, ShapeAndAccess) {
  cn::Mat m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  m.at(1, 2) = 5.f;
  EXPECT_FLOAT_EQ(m.at(1, 2), 5.f);
}

TEST(Mat, XavierInitBounded) {
  Rng rng(1);
  cn::Mat m(64, 64);
  m.init_xavier(rng);
  const double bound = std::sqrt(6.0 / 128.0);
  bool nonzero = false;
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), bound + 1e-6);
    nonzero |= m.data()[i] != 0.f;
  }
  EXPECT_TRUE(nonzero);
}

TEST(Affine, ForwardMatchesManual) {
  cn::Mat W(2, 3), b(2, 1);
  // W = [[1,2,3],[4,5,6]], b = [0.5, -1]
  for (int r = 0; r < 2; ++r)
    for (int c = 0; c < 3; ++c) W.at(r, c) = float(r * 3 + c + 1);
  b.data()[0] = 0.5f;
  b.data()[1] = -1.f;
  const float x[3] = {1.f, 0.f, -1.f};
  float y[2] = {0.f, 0.f};
  cn::affine(W, b, x, y);
  EXPECT_FLOAT_EQ(y[0], 1 - 3 + 0.5f);
  EXPECT_FLOAT_EQ(y[1], 4 - 6 - 1.f);
}

TEST(Affine, BackwardNumericalCheck) {
  Rng rng(2);
  cn::Mat W(3, 4), b(3, 1);
  W.init_xavier(rng);
  b.init_xavier(rng);
  std::vector<float> x(4);
  for (auto& v : x) v = float(rng.uniform(-1, 1));
  std::vector<float> dy(3);
  for (auto& v : dy) v = float(rng.uniform(-1, 1));

  std::vector<float> dx(4, 0.f);
  cn::affine_backward(W, b, x.data(), dy.data(), dx.data());

  // Loss L = dy . (Wx + b). Check dL/dW numerically.
  const auto loss = [&] {
    std::vector<float> y(3, 0.f);
    cn::affine(W, b, x.data(), y.data());
    float l = 0;
    for (int i = 0; i < 3; ++i) l += dy[i] * y[i];
    return l;
  };
  const float eps = 1e-3f;
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      const float save = W.at(r, c);
      W.at(r, c) = save + eps;
      const float lp = loss();
      W.at(r, c) = save - eps;
      const float lm = loss();
      W.at(r, c) = save;
      EXPECT_NEAR((lp - lm) / (2 * eps), W.grad_at(r, c), 2e-2);
    }
  }
  // dL/dx.
  for (std::size_t c = 0; c < 4; ++c) {
    const float save = x[c];
    x[c] = save + eps;
    const float lp = loss();
    x[c] = save - eps;
    const float lm = loss();
    x[c] = save;
    EXPECT_NEAR((lp - lm) / (2 * eps), dx[c], 2e-2);
  }
}

// ---------- Adam ----------

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 elementwise, from the zero-initialized matrix.
  cn::Mat w(4, 1);
  cn::Adam::Config cfg;
  cfg.lr = 0.1;
  cn::Adam opt({&w}, cfg);
  for (int it = 0; it < 500; ++it) {
    for (std::size_t i = 0; i < w.size(); ++i) {
      w.grad()[i] = 2.f * (w.data()[i] - 3.f);
    }
    opt.step();
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w.data()[i], 3.f, 0.05);
  }
}

TEST(Adam, StepZerosGradients) {
  cn::Mat w(2, 2);
  cn::Adam opt({&w});
  w.grad()[0] = 1.f;
  opt.step();
  EXPECT_FLOAT_EQ(w.grad()[0], 0.f);
}

TEST(Adam, GradientClippingBoundsUpdate) {
  cn::Mat w(1, 1);
  cn::Adam::Config cfg;
  cfg.lr = 1.0;
  cfg.clip = 0.001;
  cn::Adam opt({&w}, cfg);
  w.grad()[0] = 1e6f;
  const float before = w.data()[0];
  opt.step();
  // Clipped gradient keeps the Adam moment small; update stays ~lr-bounded.
  EXPECT_LT(std::abs(w.data()[0] - before), 1.5f);
}

namespace {

// The straightforward scalar Adam::step (global-norm clip, bias-corrected
// moments, double-precision update), kept here verbatim as the reference
// the optimized optimizer must match bit for bit.
struct ReferenceAdam {
  cn::Adam::Config config;
  std::vector<std::vector<float>> w, g, m, v;
  long t = 0;

  void step() {
    ++t;
    if (config.clip > 0) {
      double norm2 = 0.0;
      for (const auto& gk : g) {
        for (std::size_t i = 0; i < gk.size(); ++i) {
          norm2 += double(gk[i]) * gk[i];
        }
      }
      const double norm = std::sqrt(norm2);
      if (norm > config.clip) {
        const float scale = static_cast<float>(config.clip / norm);
        for (auto& gk : g) {
          for (float& x : gk) x *= scale;
        }
      }
    }
    const double bc1 = 1.0 - std::pow(config.beta1, t);
    const double bc2 = 1.0 - std::pow(config.beta2, t);
    for (std::size_t k = 0; k < w.size(); ++k) {
      for (std::size_t i = 0; i < w[k].size(); ++i) {
        m[k][i] = static_cast<float>(config.beta1 * m[k][i] +
                                     (1.0 - config.beta1) * g[k][i]);
        v[k][i] = static_cast<float>(
            config.beta2 * v[k][i] +
            (1.0 - config.beta2) * double(g[k][i]) * g[k][i]);
        const double mhat = m[k][i] / bc1;
        const double vhat = v[k][i] / bc2;
        w[k][i] -= static_cast<float>(config.lr * mhat /
                                      (std::sqrt(vhat) + config.eps));
      }
      std::fill(g[k].begin(), g[k].end(), 0.f);
    }
  }
};

}  // namespace

TEST(Adam, StepMatchesScalarReference) {
  // Ithemal's parameter shapes (embedding, head, two LSTM cells), with
  // whole embedding rows of zero gradient, as one block leaves them, and
  // gradients large enough on every third step that the global-norm clip
  // fires.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes{
      {494, 12}, {1, 24}, {1, 1},  {96, 12},
      {96, 24},  {96, 1}, {96, 24}, {96, 24}, {96, 1}};
  Rng rng(2024);
  std::vector<cn::Mat> mats;
  mats.reserve(shapes.size());
  for (const auto& [r, c] : shapes) {
    mats.emplace_back(r, c);
    mats.back().init_xavier(rng);
  }
  std::vector<cn::Mat*> params;
  for (auto& m : mats) params.push_back(&m);
  cn::Adam::Config cfg;
  cfg.lr = 2e-3;
  cn::Adam opt(params, cfg);

  ReferenceAdam ref;
  ref.config = cfg;
  for (const auto& m : mats) {
    ref.w.emplace_back(m.data(), m.data() + m.size());
    ref.g.emplace_back(m.size(), 0.f);
    ref.m.emplace_back(m.size(), 0.f);
    ref.v.emplace_back(m.size(), 0.f);
  }

  for (int step = 0; step < 40; ++step) {
    for (std::size_t k = 0; k < mats.size(); ++k) {
      cn::Mat& m = mats[k];
      for (std::size_t r = 0; r < m.rows(); ++r) {
        // Embedding: ~1 row in 20 carries gradient; the rest stay zero.
        const bool live = k != 0 || rng.uniform(0.0, 1.0) < 0.05;
        for (std::size_t c = 0; c < m.cols(); ++c) {
          const float g =
              live ? static_cast<float>(rng.uniform(-1.0, 1.0) *
                                        (step % 3 == 0 ? 40.0 : 0.05))
                   : 0.f;
          m.grad_at(r, c) = g;
          ref.g[k][r * m.cols() + c] = g;
        }
      }
    }
    if (step == 20) {
      opt.set_lr(1e-3);
      ref.config.lr = 1e-3;
    }
    opt.step();
    ref.step();
    for (std::size_t k = 0; k < mats.size(); ++k) {
      for (std::size_t i = 0; i < mats[k].size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(mats[k].data()[i]),
                  std::bit_cast<std::uint32_t>(ref.w[k][i]))
            << "step " << step << " param " << k << " index " << i;
        ASSERT_EQ(mats[k].grad()[i], 0.f);
      }
    }
  }
}

// From step ~356 on, bc1 = 1 - 0.9^t rounds to exactly 1.0 and Adam drops
// its m / bc1 division; 400 steps cover both sides of that switch.
TEST(Adam, LongRunMatchesScalarReference) {
  Rng rng(7);
  std::vector<cn::Mat> mats;
  mats.emplace_back(40, 12);
  mats.emplace_back(96, 1);
  ReferenceAdam ref;
  std::vector<cn::Mat*> params;
  for (auto& m : mats) {
    m.init_xavier(rng);
    params.push_back(&m);
    ref.w.emplace_back(m.data(), m.data() + m.size());
    ref.g.emplace_back(m.size(), 0.f);
    ref.m.emplace_back(m.size(), 0.f);
    ref.v.emplace_back(m.size(), 0.f);
  }
  cn::Adam opt(params);
  ref.config = opt.config();
  for (int step = 0; step < 400; ++step) {
    for (std::size_t k = 0; k < mats.size(); ++k) {
      for (std::size_t i = 0; i < mats[k].size(); ++i) {
        const float g = static_cast<float>(rng.uniform(-2.0, 2.0));
        mats[k].grad()[i] = g;
        ref.g[k][i] = g;
      }
    }
    opt.step();
    ref.step();
  }
  for (std::size_t k = 0; k < mats.size(); ++k) {
    for (std::size_t i = 0; i < mats[k].size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(mats[k].data()[i]),
                std::bit_cast<std::uint32_t>(ref.w[k][i]))
          << "param " << k << " index " << i;
    }
  }
}

// ---------- LSTM ----------

namespace {

// Run `cell` from zero state over `xs`, which must outlive the result.
cn::LstmSequence run_seq(const cn::LstmCell& cell,
                         const std::vector<std::vector<float>>& xs) {
  std::vector<const float*> inputs;
  for (const auto& x : xs) inputs.push_back(x.data());
  cn::LstmWeightsT wt;
  cell.transpose_weights(wt);
  cn::LstmSequence seq;
  cell.run(inputs, wt, seq);
  return seq;
}

// The final hidden state of a run of `cell` over `xs`.
std::vector<float> final_h(const cn::LstmCell& cell,
                           const std::vector<std::vector<float>>& xs) {
  const cn::LstmSequence seq = run_seq(cell, xs);
  const float* h = cell.final_hidden(seq);
  return {h, h + cell.hidden_dim()};
}

}  // namespace

TEST(Lstm, ForwardShapes) {
  Rng rng(3);
  cn::LstmCell cell(5, 7, rng);
  EXPECT_EQ(cell.input_dim(), 5u);
  EXPECT_EQ(cell.hidden_dim(), 7u);
  std::vector<std::vector<float>> xs(4, std::vector<float>(5, 0.1f));
  const auto seq = run_seq(cell, xs);
  ASSERT_EQ(seq.steps(), 4u);
  EXPECT_EQ(seq.gates.size(), 4u * 28u);
  EXPECT_EQ(seq.tanh_c.size(), 4u * 7u);
  EXPECT_EQ(seq.h.size(), 5u * 7u);  // leading zero initial state
  EXPECT_EQ(seq.c.size(), 5u * 7u);
}

TEST(Lstm, EmptySequenceYieldsNoCaches) {
  Rng rng(4);
  cn::LstmCell cell(3, 4, rng);
  const auto seq = run_seq(cell, {});
  EXPECT_EQ(seq.steps(), 0u);
  EXPECT_EQ(final_h(cell, {}), std::vector<float>(4, 0.f));
}

TEST(Lstm, HiddenStateIsBounded) {
  // |h| <= 1 elementwise (tanh * sigmoid).
  Rng rng(5);
  cn::LstmCell cell(4, 6, rng);
  std::vector<std::vector<float>> xs(20, std::vector<float>(4, 3.f));
  for (float v : final_h(cell, xs)) {
    EXPECT_LE(std::abs(v), 1.0f);
  }
}

TEST(Lstm, DeterministicForward) {
  Rng rng(6);
  cn::LstmCell cell(3, 5, rng);
  std::vector<std::vector<float>> xs(3, std::vector<float>(3, 0.5f));
  const auto a = final_h(cell, xs);
  const auto b = final_h(cell, xs);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i], b[i]);
  }
}

// run_final_batch must reproduce run()'s final hidden state bit for bit on
// every lane, whatever the lane lengths: empty lanes stay zero, T = 1 lanes
// take one step. The shapes cover 4H = 96 (three full register chunks), 48
// (one chunk plus a tail) and 20 (tail only).
TEST(Lstm, BatchedFinalStateMatchesRunBitwise) {
  struct Shape {
    std::size_t d, h;
  };
  for (const Shape shape : {Shape{12, 24}, Shape{8, 12}, Shape{3, 5}}) {
    Rng rng(40 + shape.h);
    const cn::LstmCell cell(shape.d, shape.h, rng);
    std::vector<std::vector<std::vector<float>>> inputs;
    for (const std::size_t len : {0, 1, 5, 1, 0, 9, 2, 3, 1, 13, 0, 4}) {
      std::vector<std::vector<float>> xs(len, std::vector<float>(shape.d));
      for (auto& x : xs) {
        for (auto& v : x) v = static_cast<float>(rng.uniform(-3.0, 3.0));
      }
      inputs.push_back(std::move(xs));
    }
    std::vector<const float*> xs;
    std::vector<std::size_t> ends;
    for (const auto& lane : inputs) {
      for (const auto& x : lane) xs.push_back(x.data());
      ends.push_back(xs.size());
    }
    cn::LstmWeightsT wt;
    cell.transpose_weights(wt);
    cn::LstmBatchScratch scratch;
    std::vector<float> h_out;
    cell.run_final_batch(xs, ends, wt, h_out, scratch);
    ASSERT_EQ(h_out.size(), inputs.size() * shape.h);
    for (std::size_t lane = 0; lane < inputs.size(); ++lane) {
      const auto want_h = final_h(cell, inputs[lane]);
      for (std::size_t i = 0; i < shape.h; ++i) {
        const float want = want_h[i];
        EXPECT_EQ(std::bit_cast<std::uint32_t>(h_out[lane * shape.h + i]),
                  std::bit_cast<std::uint32_t>(want))
            << "H=" << shape.h << " lane " << lane << " unit " << i;
      }
    }
  }
}

// A lane resumed from a state that run_final_batch saved must end where
// run() over the whole sequence ends, bit for bit: resumed after every
// prefix length k, with an empty suffix, with more save slots than steps,
// and with the saving and the resumed lane in one call.
TEST(Lstm, ResumedLanesMatchRunBitwise) {
  struct Shape {
    std::size_t d, h;
  };
  for (const Shape shape : {Shape{12, 24}, Shape{8, 12}, Shape{3, 5}}) {
    const std::size_t H = shape.h;
    Rng rng(60 + H);
    const cn::LstmCell cell(shape.d, H, rng);
    std::vector<std::vector<float>> inputs(9, std::vector<float>(shape.d));
    for (auto& x : inputs) {
      for (auto& v : x) v = static_cast<float>(rng.uniform(-3.0, 3.0));
    }
    std::vector<const float*> xs;
    for (const auto& x : inputs) xs.push_back(x.data());
    const std::size_t T = xs.size();
    const auto seq = run_seq(cell, inputs);
    const auto want = final_h(cell, inputs);
    const auto expect_bits = [&](const float* got, const float* ref,
                                 const char* what, std::size_t k) {
      for (std::size_t i = 0; i < H; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                  std::bit_cast<std::uint32_t>(ref[i]))
            << what << " H=" << H << " k=" << k << " unit " << i;
      }
    };
    cn::LstmWeightsT wt;
    cell.transpose_weights(wt);
    cn::LstmBatchScratch scratch;
    std::vector<float> h_out;

    // Save after every step of the whole lane: slot j holds run()'s state
    // after step j, h then c.
    std::vector<float> states(T * 2 * H);
    std::vector<float*> saves;
    for (std::size_t j = 0; j < T; ++j) saves.push_back(&states[j * 2 * H]);
    const std::vector<std::size_t> whole{T};
    cell.run_final_batch(xs, whole, wt, h_out, scratch, {}, saves, T);
    expect_bits(h_out.data(), want.data(), "saving lane", T);
    for (std::size_t j = 0; j < T; ++j) {
      expect_bits(saves[j], seq.h.data() + (j + 1) * H, "saved h", j);
      expect_bits(saves[j] + H, seq.c.data() + (j + 1) * H, "saved c", j);
    }

    // Resume the suffix after every prefix length k, in a call of its own;
    // at k = T the suffix is empty and returns the start's h.
    for (std::size_t k = 1; k <= T; ++k) {
      const std::vector<std::size_t> suffix{T - k};
      const std::vector<const float*> start{saves[k - 1]};
      cell.run_final_batch(std::span(xs).subspan(k), suffix, wt, h_out,
                           scratch, start);
      expect_bits(h_out.data(), want.data(), "resumed lane", k);
    }

    // More save slots than the lane has steps: the extra slots stay as
    // they were.
    std::vector<float> short_states(5 * 2 * H, -7.f);
    std::vector<float*> short_saves;
    for (std::size_t j = 0; j < 5; ++j) {
      short_saves.push_back(&short_states[j * 2 * H]);
    }
    const std::vector<std::size_t> two{2};
    cell.run_final_batch(xs, two, wt, h_out, scratch, {}, short_saves, 5);
    expect_bits(short_saves[1], seq.h.data() + 2 * H, "short lane h", 2);
    for (std::size_t i = 2 * 2 * H; i < short_states.size(); ++i) {
      EXPECT_EQ(short_states[i], -7.f) << "H=" << H << " slot float " << i;
    }

    // One call: lane 0 runs the prefix of k steps and saves its state
    // (null slots are skipped), lane 1 resumes from that slot, lane 2 runs
    // the whole sequence from zero state.
    for (std::size_t k = 1; k < T; ++k) {
      std::vector<float> slot(2 * H);
      std::vector<const float*> lane_xs(xs.begin(), xs.begin() + k);
      lane_xs.insert(lane_xs.end(), xs.begin() + k, xs.end());
      lane_xs.insert(lane_xs.end(), xs.begin(), xs.end());
      const std::vector<std::size_t> ends{k, T, 2 * T};
      std::vector<float*> lane_saves(3 * k, nullptr);
      lane_saves[k - 1] = slot.data();
      const std::vector<const float*> starts{nullptr, slot.data(), nullptr};
      cell.run_final_batch(lane_xs, ends, wt, h_out, scratch, starts,
                           lane_saves, k);
      expect_bits(h_out.data() + H, want.data(), "same-call resume", k);
      expect_bits(h_out.data() + 2 * H, want.data(), "zero-start lane", k);
    }
  }
}

TEST(Lstm, BpttNumericalGradientCheck) {
  // Full BPTT gradient check on a tiny LSTM: loss = sum(h_final).
  Rng rng(7);
  cn::LstmCell cell(3, 4, rng);
  std::vector<std::vector<float>> xs;
  for (int t = 0; t < 3; ++t) {
    std::vector<float> x(3);
    for (auto& v : x) v = float(rng.uniform(-1, 1));
    xs.push_back(x);
  }
  const auto loss = [&] {
    float l = 0;
    for (float v : final_h(cell, xs)) l += v;
    return l;
  };

  const auto seq = run_seq(cell, xs);
  const std::vector<float> dh(4, 1.f);
  cn::LstmBpttScratch scratch;
  std::vector<float> dxs;
  cell.backward(seq, dh.data(), scratch, dxs);
  ASSERT_EQ(dxs.size(), 3u * 3u);

  // Check parameter gradients numerically (sampled entries).
  const float eps = 1e-3f;
  for (cn::Mat* p : cell.params()) {
    for (std::size_t i = 0; i < p->size(); i += std::max<std::size_t>(1, p->size() / 17)) {
      const float analytic = p->grad()[i];
      const float save = p->data()[i];
      p->data()[i] = save + eps;
      const float lp = loss();
      p->data()[i] = save - eps;
      const float lm = loss();
      p->data()[i] = save;
      EXPECT_NEAR((lp - lm) / (2 * eps), analytic, 5e-2)
          << "param entry " << i;
    }
    p->zero_grad();
  }

  // Check input gradients numerically.
  for (std::size_t t = 0; t < xs.size(); ++t) {
    for (std::size_t d = 0; d < 3; ++d) {
      const float save = xs[t][d];
      xs[t][d] = save + eps;
      const float lp = loss();
      xs[t][d] = save - eps;
      const float lm = loss();
      xs[t][d] = save;
      EXPECT_NEAR((lp - lm) / (2 * eps), dxs[t * 3 + d], 5e-2);
    }
  }
}

TEST(Lstm, CanLearnToSumInputs) {
  // Train a small LSTM + fixed readout to approximate the sum of a short
  // sequence of scalars — end-to-end learning sanity check.
  Rng rng(8);
  cn::LstmCell cell(1, 8, rng);
  cn::Mat w(1, 8), b(1, 1);
  w.init_xavier(rng);
  std::vector<cn::Mat*> params = cell.params();
  params.push_back(&w);
  params.push_back(&b);
  cn::Adam::Config cfg;
  cfg.lr = 1e-2;
  cn::Adam opt(params, cfg);

  cn::LstmBpttScratch scratch;
  std::vector<float> dxs;
  double final_err = 0;
  for (int it = 0; it < 1500; ++it) {
    std::vector<std::vector<float>> xs;
    float target = 0;
    const int len = 2 + int(rng.index(3));
    for (int t = 0; t < len; ++t) {
      const float v = float(rng.uniform(0, 0.5));
      xs.push_back({v});
      target += v;
    }
    const auto seq = run_seq(cell, xs);
    const float* h = cell.final_hidden(seq);
    float y = b.data()[0];
    for (int i = 0; i < 8; ++i) y += w.data()[i] * h[i];
    const float err = y - target;
    // Head gradients.
    for (int i = 0; i < 8; ++i) w.grad()[i] += 2 * err * h[i];
    b.grad()[0] += 2 * err;
    std::vector<float> dh(8);
    for (int i = 0; i < 8; ++i) dh[i] = 2 * err * w.data()[i];
    cell.backward(seq, dh.data(), scratch, dxs);
    opt.step();
    if (it >= 1400) final_err += std::abs(err);
  }
  EXPECT_LT(final_err / 100.0, 0.12);
}
