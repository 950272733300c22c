#include "cost/ithemal_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>

#include "util/contract.h"

namespace comet::cost {

namespace {
// Checkpoint magic doubles as a format version. v1 (0xC03E7001) folded
// unknown register widths onto the 64-bit token, silently aliasing distinct
// operands; v2 gives unknown widths their own code, which grows the
// vocabulary (and so the embedding), so v1 checkpoints are rejected on load
// and the model retrains instead of mapping tokens onto the wrong rows.
constexpr std::uint32_t kMagic = 0xC03E7102;

int width_code(std::uint16_t bits) {
  switch (bits) {
    case 8: return 0;
    case 16: return 1;
    case 32: return 2;
    case 64: return 3;
    case 128: return 4;
    case 256: return 5;
    default: return 6;  // unknown widths get their own token
  }
}
constexpr int kWidthCodes = 7;

// A session table keys an instruction by its token ids at 2 bytes each.
static_assert(x86::kNumOpcodes +
                      static_cast<std::size_t>(x86::RegFamily::kCount) *
                          kWidthCodes +
                      3 <=
                  0x10000,
              "token ids must fit the 2-byte keys of IthemalModel::InstTable");
}  // namespace

BlockTokenizer::BlockTokenizer() {
  const std::size_t n_ops = x86::kNumOpcodes;
  const std::size_t n_regs =
      static_cast<std::size_t>(x86::RegFamily::kCount) * kWidthCodes;
  imm_token_ = static_cast<int>(n_ops + n_regs);
  mem_open_token_ = imm_token_ + 1;
  mem_close_token_ = imm_token_ + 2;
  vocab_size_ = n_ops + n_regs + 3;
}

void BlockTokenizer::tokenize(const x86::BasicBlock& block,
                              std::vector<int>& toks,
                              std::vector<std::size_t>& ends) const {
  const auto reg_token = [&](const x86::Reg& r) {
    return static_cast<int>(x86::kNumOpcodes) +
           static_cast<int>(r.family) * kWidthCodes + width_code(r.width_bits);
  };
  for (const auto& inst : block.instructions) {
    const std::size_t begin = toks.size();
    toks.push_back(static_cast<int>(inst.opcode));
    for (const auto& op : inst.operands) {
      switch (op.kind()) {
        case x86::OperandKind::Reg:
          toks.push_back(reg_token(op.as_reg()));
          break;
        case x86::OperandKind::Imm:
          toks.push_back(imm_token_);
          break;
        case x86::OperandKind::Mem: {
          toks.push_back(mem_open_token_);
          const auto& m = op.as_mem();
          if (m.base) toks.push_back(reg_token(*m.base));
          if (m.index) toks.push_back(reg_token(*m.index));
          toks.push_back(mem_close_token_);
          break;
        }
      }
    }
    // Every token id must index a real embedding row: a token outside the
    // vocabulary would read (and, in training, write) out of bounds. The
    // tokenizer owns the vocabulary, so this is an internal contract — a
    // debug check, forced on in the fuzz/coverage builds.
    for (std::size_t t = begin; t < toks.size(); ++t) {
      COMET_DCHECK(toks[t] >= 0 &&
                   static_cast<std::size_t>(toks[t]) < vocab_size_);
    }
    ends.push_back(toks.size());
  }
}

IthemalModel::IthemalModel(MicroArch uarch, IthemalConfig config)
    : TrainableModel({.kind = "IthemalModel", .magic = kMagic,
                      .epochs = config.epochs, .lr = config.lr,
                      .seed = config.seed}),
      uarch_(uarch),
      config_(config) {
  util::Rng rng(config_.seed + (uarch == MicroArch::Skylake ? 1 : 0));
  embedding_ = nn::Mat(tokenizer_.vocab_size(), config_.embed_dim);
  embedding_.init_xavier(rng);
  token_lstm_ = nn::LstmCell(config_.embed_dim, config_.hidden_dim, rng);
  block_lstm_ = nn::LstmCell(config_.hidden_dim, config_.hidden_dim, rng);
  head_w_ = nn::Mat(1, config_.hidden_dim);
  head_w_.init_xavier(rng);
  head_b_ = nn::Mat(1, 1);
  head_b_.data()[0] = 0.0f;  // log-space head: exp(0) = 1 cycle

  std::vector<nn::Mat*> params{&embedding_, &head_w_, &head_b_};
  std::vector<nn::Mat*> checkpoint{&embedding_};
  for (auto* p : token_lstm_.params()) {
    params.push_back(p);
    checkpoint.push_back(p);
  }
  for (auto* p : block_lstm_.params()) {
    params.push_back(p);
    checkpoint.push_back(p);
  }
  checkpoint.push_back(&head_w_);
  checkpoint.push_back(&head_b_);
  init_training(std::move(params), std::move(checkpoint));
}

void IthemalModel::embedding_rows(std::span<const int> tokens,
                                  std::vector<const float*>& rows) const {
  for (const int t : tokens) {
    rows.push_back(embedding_.data() + t * config_.embed_dim);
  }
}

double IthemalModel::head(const float* h) const {
  double y = head_b_.data()[0];
  for (std::size_t i = 0; i < config_.hidden_dim; ++i) {
    y += head_w_.data()[i] * h[i];
  }
  // The regressor works in log-space: throughputs span two orders of
  // magnitude (0.25 .. ~25 cycles), and a log-linear head keeps the
  // relative-error loss well conditioned across that range.
  return std::exp(std::clamp(y, -3.0, 5.0));
}

double IthemalModel::forward(const x86::BasicBlock& block,
                             Workspace& ws) const {
  ws.tokens.clear();
  ws.ends.clear();
  tokenizer_.tokenize(block, ws.tokens, ws.ends);
  const std::size_t n = ws.ends.size();
  token_lstm_.transpose_weights(ws.token_wt);
  block_lstm_.transpose_weights(ws.block_wt);
  if (ws.token_seqs.size() < n) ws.token_seqs.resize(n);
  std::size_t begin = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ws.xs.clear();
    embedding_rows(std::span(ws.tokens).subspan(begin, ws.ends[i] - begin),
                   ws.xs);
    token_lstm_.run(ws.xs, ws.token_wt, ws.token_seqs[i]);
    begin = ws.ends[i];
  }
  ws.xs.clear();
  for (std::size_t i = 0; i < n; ++i) {
    ws.xs.push_back(token_lstm_.final_hidden(ws.token_seqs[i]));
  }
  block_lstm_.run(ws.xs, ws.block_wt, ws.block_seq);
  return head(block_lstm_.final_hidden(ws.block_seq));
}

double IthemalModel::predict(const x86::BasicBlock& block) const {
  if (block.empty()) return 0.0;
  Workspace ws;  // per call: concurrent predict() calls share nothing
  return forward(block, ws);
}

/// Token-LSTM final states of distinct instructions: row r of `rows`
/// (hidden_dim floats) belongs to the instruction whose token ids, 2 bytes
/// each, make the key mapped to r. Keys of up to 7 tokens fit a
/// std::string's inline storage.
///
/// Beside them, a prefix trie of block-LSTM states: node n holds in
/// `states` (2 x hidden_dim floats, h then c) the block LSTM's state after
/// the instructions on its path from the root, and `node_of` maps (parent
/// node, instruction row) to a child, the root's children under parent
/// kNoNode. Both are pure functions of the instructions' token ids, so the
/// trie is cleared only with the rows its keys name.
struct IthemalModel::InstTable {
  static constexpr std::uint32_t kNoNode = 0xffffffffu;
  static std::uint64_t trie_key(std::uint32_t parent, std::size_t row) {
    return (std::uint64_t{parent} << 32) | static_cast<std::uint32_t>(row);
  }

  std::vector<float> rows;
  std::unordered_map<std::string, std::size_t> row_of;
  std::vector<float> states;
  std::unordered_map<std::uint64_t, std::uint32_t> node_of;

  void clear() {
    rows.clear();
    row_of.clear();
    states.clear();
    node_of.clear();
  }
};

/// The buffers of predict_batch's chunks, reused across chunks and, in a
/// session, across batches, with the LSTMs' transposed weights, built once
/// per call or per session (which, like its table, must not outlive a
/// change to the model's weights).
struct IthemalModel::BatchScratch {
  explicit BatchScratch(const IthemalModel& model) {
    model.token_lstm_.transpose_weights(token_wt);
    model.block_lstm_.transpose_weights(block_wt);
  }

  nn::LstmWeightsT token_wt;
  nn::LstmWeightsT block_wt;
  std::vector<std::size_t> live;  // out index of each non-empty block
  std::vector<int> tokens;        // every live block's, flat
  std::vector<std::size_t> inst_end;   // each instruction's end in tokens
  std::vector<std::size_t> block_end;  // each live block's end in inst_end
  std::string key;
  std::vector<const float*> token_xs;  // token-LSTM lanes: new instructions
  std::vector<std::size_t> token_ends;
  std::vector<std::size_t> inst_row;  // every instruction, in block order
  std::vector<const float*> block_xs;  // block-LSTM lanes: one per block
  std::vector<std::size_t> block_ends;
  std::vector<std::uint32_t> start_node;  // per lane; kNoNode: zero state
  std::vector<std::uint32_t> save_node;   // per lane x kTrieDepth
  std::vector<const float*> starts;
  std::vector<float*> saves;
  nn::LstmBatchScratch lstm;
  std::vector<float> h;  // run_final_batch's output rows
};

class IthemalModel::Session final : public ModelSession {
 public:
  explicit Session(const IthemalModel& model)
      : model_(&model), scratch_(model) {}
  void predict_batch(std::span<const x86::BasicBlock> blocks,
                     std::span<double> out) override {
    model_->run_batch(blocks, out, &table_, scratch_);
  }

 private:
  const IthemalModel* model_;
  InstTable table_;
  BatchScratch scratch_;
};

std::unique_ptr<ModelSession> IthemalModel::open_session() const {
  return std::make_unique<Session>(*this);
}

void IthemalModel::predict_batch(std::span<const x86::BasicBlock> blocks,
                                 std::span<double> out) const {
  BatchScratch scratch(*this);
  run_batch(blocks, out, nullptr, scratch);
}

void IthemalModel::run_batch(std::span<const x86::BasicBlock> blocks,
                             std::span<double> out, InstTable* session,
                             BatchScratch& scratch) const {
  COMET_CHECK_MSG(blocks.size() == out.size(),
                  "predict_batch: " << blocks.size() << " blocks but "
                                    << out.size() << " output slots");
  InstTable local;
  for (std::size_t i = 0; i < blocks.size(); i += kChunk) {
    const std::size_t n = std::min(kChunk, blocks.size() - i);
    if (!session && i % kLocalTableBlocks == 0) local.clear();
    run_chunk(blocks.subspan(i, n), out.subspan(i, n),
              session ? *session : local, scratch);
  }
}

void IthemalModel::run_chunk(std::span<const x86::BasicBlock> blocks,
                             std::span<double> out, InstTable& table,
                             BatchScratch& s) const {
  const std::size_t H = config_.hidden_dim;

  // Stage 1 — tokenize the non-empty blocks of the chunk into one buffer.
  s.live.clear();
  s.tokens.clear();
  s.inst_end.clear();
  s.block_end.clear();
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (blocks[b].empty()) {
      out[b] = 0.0;
      continue;
    }
    s.live.push_back(b);
    tokenizer_.tokenize(blocks[b], s.tokens, s.inst_end);
    s.block_end.push_back(s.inst_end.size());
  }
  if (s.live.empty()) return;

  // Stage 2 — an instruction's embedding is a pure function of its token
  // ids, so a token sequence gets a token-LSTM lane only the first time
  // its table sees it; later occurrences, in this chunk or (in a session)
  // in any later batch, reuse its row. Lane inputs are pointers straight
  // into the embedding table.
  const std::size_t known = table.rows.size() / H;
  s.token_xs.clear();
  s.token_ends.clear();
  s.inst_row.clear();
  std::size_t begin = 0;
  for (const std::size_t end : s.inst_end) {
    const std::span<const int> seq(s.tokens.data() + begin, end - begin);
    begin = end;
    s.key.resize(2 * seq.size());
    for (std::size_t t = 0; t < seq.size(); ++t) {
      s.key[2 * t] = static_cast<char>(seq[t] & 0xff);
      s.key[2 * t + 1] = static_cast<char>(seq[t] >> 8);
    }
    const auto [it, added] =
        table.row_of.try_emplace(s.key, known + s.token_ends.size());
    if (added) {
      embedding_rows(seq, s.token_xs);
      s.token_ends.push_back(s.token_xs.size());
    }
    s.inst_row.push_back(it->second);
  }

  // Stage 3 — token LSTM over the new lanes; their final states become the
  // table's next rows. Appending may move the rows, so the block lanes
  // point at them only after it.
  if (!s.token_ends.empty()) {
    token_lstm_.run_final_batch(s.token_xs, s.token_ends, s.token_wt, s.h,
                                s.lstm);
    table.rows.insert(table.rows.end(), s.h.begin(), s.h.end());
  }

  // Stage 4 — block LSTM: each block walks the trie along its first
  // kTrieDepth instructions. Its lane starts at the deepest node that
  // exists, created by an earlier batch or by an earlier lane of this one
  // (lanes run in order), and creates the nodes it lacks, saving its state
  // into them; the rest of the lane walks the table rows of its
  // instructions. Creating nodes may move `states`, so node ids become
  // pointers only after the walk.
  const std::size_t lanes = s.live.size();
  auto nodes = static_cast<std::uint32_t>(table.states.size() / (2 * H));
  s.block_xs.clear();
  s.block_ends.clear();
  s.start_node.assign(lanes, InstTable::kNoNode);
  s.save_node.assign(lanes * kTrieDepth, InstTable::kNoNode);
  std::size_t first = 0;
  for (std::size_t k = 0; k < lanes; ++k) {
    const std::span<const std::size_t> rows(s.inst_row.data() + first,
                                            s.block_end[k] - first);
    first = s.block_end[k];
    std::size_t start = 0;
    std::uint32_t parent = InstTable::kNoNode;
    for (std::size_t j = 0; j < std::min(rows.size(), kTrieDepth); ++j) {
      const auto [it, added] = table.node_of.try_emplace(
          InstTable::trie_key(parent, rows[j]), nodes);
      if (added) {
        s.save_node[k * kTrieDepth + j - start] = nodes++;
      } else {
        // A new node has no children yet, so the nodes found come first.
        start = j + 1;
        s.start_node[k] = it->second;
      }
      parent = it->second;
    }
    for (std::size_t j = start; j < rows.size(); ++j) {
      s.block_xs.push_back(table.rows.data() + rows[j] * H);
    }
    s.block_ends.push_back(s.block_xs.size());
  }
  table.states.resize(std::size_t{nodes} * 2 * H);
  const auto state = [&](std::uint32_t node) {
    return node == InstTable::kNoNode
               ? nullptr
               : table.states.data() + std::size_t{node} * 2 * H;
  };
  s.starts.clear();
  for (const std::uint32_t node : s.start_node) {
    s.starts.push_back(state(node));
  }
  s.saves.clear();
  for (const std::uint32_t node : s.save_node) s.saves.push_back(state(node));
  block_lstm_.run_final_batch(s.block_xs, s.block_ends, s.block_wt, s.h,
                              s.lstm, s.starts, s.saves, kTrieDepth);

  // Stage 5 — the regression head.
  for (std::size_t k = 0; k < lanes; ++k) {
    out[s.live[k]] = head(s.h.data() + k * H);
  }
}

std::string IthemalModel::name() const {
  return "ithemal-" + uarch_name(uarch_);
}

double IthemalModel::accumulate_gradients(const x86::BasicBlock& block,
                                          double target) {
  Workspace& ws = train_ws_;
  const double prediction = forward(block, ws);
  // Relative-error loss: L = ((y - t) / t)^2 — matches the MAPE evaluation
  // metric and normalizes the wide dynamic range of throughputs.
  const double rel = (prediction - target) / target;
  // d/draw of ((exp(raw) - t)/t)^2 = 2*rel/t * exp(raw).
  const double dy = 2.0 * rel / target * prediction;
  const std::size_t D = config_.embed_dim;
  const std::size_t H = config_.hidden_dim;

  // Head backward.
  const float* h_final = block_lstm_.final_hidden(ws.block_seq);
  ws.dh_final.resize(H);
  for (std::size_t i = 0; i < H; ++i) {
    head_w_.grad()[i] += static_cast<float>(dy) * h_final[i];
    ws.dh_final[i] = static_cast<float>(dy) * head_w_.data()[i];
  }
  head_b_.grad()[0] += static_cast<float>(dy);

  // Block LSTM backward -> gradients of instruction embeddings.
  block_lstm_.backward(ws.block_seq, ws.dh_final.data(), ws.bptt, ws.dinst);

  // Token LSTMs backward -> embedding-row gradients.
  std::size_t begin = 0;
  for (std::size_t i = 0; i < ws.ends.size(); ++i) {
    token_lstm_.backward(ws.token_seqs[i], ws.dinst.data() + i * H, ws.bptt,
                         ws.dtok);
    for (std::size_t t = begin; t < ws.ends[i]; ++t) {
      float* gro = embedding_.grad() + ws.tokens[t] * D;
      const float* dx = ws.dtok.data() + (t - begin) * D;
      for (std::size_t d = 0; d < D; ++d) gro[d] += dx[d];
    }
    begin = ws.ends[i];
  }
  return rel * rel;
}

void IthemalModel::release_training_buffers() {
  // Hand the step buffers back to the heap for what runs after training:
  // kept, they lifted explain-ithemal's peak RSS by ~0.06 MB.
  train_ws_ = Workspace{};
}

}  // namespace comet::cost
