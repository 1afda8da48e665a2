#include "workloads/btree.h"

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

constexpr u32 kKeysPerLeaf = 8;  // key span covered by each leaf

u32 pow_u32(u32 base, u32 exp) {
  u32 r = 1;
  while (exp--) r *= base;
  return r;
}

/// Level-major offset (in nodes) of inner level `l`.
u32 level_node_offset(u32 fanout, u32 l) {
  u32 off = 0;
  for (u32 i = 0; i < l; ++i) off += pow_u32(fanout, i);
  return off;
}

/// Point query: descend `depth` inner levels, emit leaf value.
/// Params: inner_keys, leaf_values, queries, out, n.
isa::ProgramPtr build_point_query(u32 fanout, u32 depth) {
  using namespace isa;
  KernelBuilder kb("btree_point");

  Reg keys = kb.reg(), leaves = kb.reg(), queries = kb.reg(), out = kb.reg(),
      n = kb.reg();
  kb.ldp(keys, 0);
  kb.ldp(leaves, 1);
  kb.ldp(queries, 2);
  kb.ldp(out, 3);
  kb.ldp(n, 4);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  Reg a = kb.reg(), q = kb.reg();
  kb.imad(a, tid, imm(4), queries);
  kb.ldg(q, a);

  // node index within its level.
  Reg node = kb.reg(), child = kb.reg(), key = kb.reg(), one = kb.reg(),
      base = kb.reg(), lin = kb.reg();
  // One predicate reused across every separator test: each setp is consumed
  // by the selp right after it, and allocating depth*(fanout-1) fresh
  // predicates would blow the 8-register predicate file.
  PredReg ge = kb.pred();
  kb.movi(node, 0);
  for (u32 level = 0; level < depth; ++level) {
    const u32 level_off = level_node_offset(fanout, level) * (fanout - 1);
    // child = sum over separators of (q >= key) ? 1 : 0
    kb.movi(child, 0);
    kb.imul(lin, node, imm(static_cast<i32>(fanout - 1)));
    kb.imad(base, lin, imm(4),
            imm(static_cast<i32>(level_off * 4)));
    Reg addr = kb.reg();
    kb.iadd(addr, base, keys);
    for (u32 s = 0; s + 1 < fanout; ++s) {
      kb.ldg(key, addr, static_cast<i32>(s * 4));
      kb.setp(ge, CmpOp::kGe, DType::kI32, q, key);
      kb.selp(one, imm(1), imm(0), ge);
      kb.iadd(child, child, one);
    }
    kb.imad(node, node, imm(static_cast<i32>(fanout)), child);
  }
  Reg a_leaf = util::elem_addr(kb, leaves, node);
  Reg v = kb.reg();
  kb.ldg(v, a_leaf);
  Reg a_out = util::elem_addr(kb, out, tid);
  kb.stg(a_out, v);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// Range query: sum the leaf values spanned by [q, hi] (both keys).
/// Leaf index of key k is simply k / kKeysPerLeaf in this synthetic tree,
/// but the kernel still descends the tree for the lower bound to keep the
/// benchmark's branchy access pattern, then walks leaves.
isa::ProgramPtr build_range_query(u32 fanout, u32 depth) {
  using namespace isa;
  KernelBuilder kb("btree_range");

  Reg keys = kb.reg(), leaves = kb.reg(), queries = kb.reg(), his = kb.reg(),
      out = kb.reg(), n = kb.reg();
  kb.ldp(keys, 0);
  kb.ldp(leaves, 1);
  kb.ldp(queries, 2);
  kb.ldp(his, 3);
  kb.ldp(out, 4);
  kb.ldp(n, 5);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  Reg a = kb.reg(), q = kb.reg(), hi = kb.reg();
  kb.imad(a, tid, imm(4), queries);
  kb.ldg(q, a);
  kb.imad(a, tid, imm(4), his);
  kb.ldg(hi, a);

  // Descend for the lower bound.
  Reg node = kb.reg(), child = kb.reg(), key = kb.reg(), one = kb.reg(),
      base = kb.reg(), lin = kb.reg();
  // Reused separator-test predicate; see build_point_query.
  PredReg ge = kb.pred();
  kb.movi(node, 0);
  for (u32 level = 0; level < depth; ++level) {
    const u32 level_off = level_node_offset(fanout, level) * (fanout - 1);
    kb.movi(child, 0);
    kb.imul(lin, node, imm(static_cast<i32>(fanout - 1)));
    kb.imad(base, lin, imm(4), imm(static_cast<i32>(level_off * 4)));
    Reg addr = kb.reg();
    kb.iadd(addr, base, keys);
    for (u32 s = 0; s + 1 < fanout; ++s) {
      kb.ldg(key, addr, static_cast<i32>(s * 4));
      kb.setp(ge, CmpOp::kGe, DType::kI32, q, key);
      kb.selp(one, imm(1), imm(0), ge);
      kb.iadd(child, child, one);
    }
    kb.imad(node, node, imm(static_cast<i32>(fanout)), child);
  }

  // Walk leaves node..leaf_index(hi), summing values (divergent loop).
  Reg last = kb.reg(), acc = kb.reg(), v = kb.reg();
  kb.shr(last, hi, imm(3));  // hi / kKeysPerLeaf (8)
  kb.movi(acc, 0);
  Label loop = kb.label(), loop_end = kb.label();
  kb.bind(loop);
  PredReg past = kb.pred();
  kb.setp(past, CmpOp::kGt, DType::kI32, node, last);
  kb.bra(loop_end).guard_if(past);
  kb.imad(a, node, imm(4), leaves);
  kb.ldg(v, a);
  kb.iadd(acc, acc, v);
  kb.iadd(node, node, imm(1));
  kb.bra(loop);
  kb.bind(loop_end);

  Reg a_out = util::elem_addr(kb, out, tid);
  kb.stg(a_out, acc);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void BTree::setup(Scale scale, u64 seed) {
  depth_ = scale == Scale::kTest ? 2 : 4;
  num_queries_ = scale == Scale::kTest ? 1024 : 8192;
  num_leaves_ = pow_u32(kFanout, depth_);
  Rng rng(seed);

  // Separator keys: child c+1 of node m (level l) starts at leaf
  // (m*fanout + c + 1) * fanout^(depth-l-1); its first key is that * 8.
  inner_keys_.clear();
  for (u32 l = 0; l < depth_; ++l) {
    const u32 nodes = pow_u32(kFanout, l);
    const u32 leaves_per_child = pow_u32(kFanout, depth_ - l - 1);
    for (u32 m = 0; m < nodes; ++m)
      for (u32 c = 0; c + 1 < kFanout; ++c) {
        const u32 first_leaf = (m * kFanout + c + 1) * leaves_per_child;
        inner_keys_.push_back(static_cast<i32>(first_leaf * kKeysPerLeaf));
      }
  }
  leaf_values_.resize(num_leaves_);
  for (u32 i = 0; i < num_leaves_; ++i)
    leaf_values_[i] = static_cast<i32>(i * 7 + 3);

  const u32 max_key = num_leaves_ * kKeysPerLeaf;
  queries_.resize(num_queries_);
  range_hi_.resize(num_queries_);
  for (u32 i = 0; i < num_queries_; ++i) {
    queries_[i] = static_cast<i32>(rng.next_below(max_key));
    const u32 span = static_cast<u32>(rng.next_below(4 * kKeysPerLeaf));
    range_hi_[i] = static_cast<i32>(
        std::min<u32>(static_cast<u32>(queries_[i]) + span, max_key - 1));
  }

  // References.
  reference_point_.resize(num_queries_);
  reference_range_.resize(num_queries_);
  for (u32 i = 0; i < num_queries_; ++i) {
    const u32 lo_leaf = static_cast<u32>(queries_[i]) / kKeysPerLeaf;
    const u32 hi_leaf = static_cast<u32>(range_hi_[i]) / kKeysPerLeaf;
    reference_point_[i] = leaf_values_[lo_leaf];
    i32 acc = 0;
    for (u32 leaf = lo_leaf; leaf <= hi_leaf; ++leaf)
      acc += leaf_values_[leaf];
    reference_range_[i] = acc;
  }
  result_point_.clear();
  result_range_.clear();
}

void BTree::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  const u64 input_bytes = inner_keys_.size() * 4 +
                          static_cast<u64>(num_leaves_) * 4 +
                          2ull * num_queries_ * 4;
  session.device().host_parse(input_bytes * 6);  // command/database files

  const u64 keys_bytes = inner_keys_.size() * 4;
  const u64 leaf_bytes = static_cast<u64>(num_leaves_) * 4;
  const u64 q_bytes = static_cast<u64>(num_queries_) * 4;
  core::ReplicaPtr d_keys = session.alloc(keys_bytes);
  core::ReplicaPtr d_leaves = session.alloc(leaf_bytes);
  core::ReplicaPtr d_q = session.alloc(q_bytes);
  core::ReplicaPtr d_hi = session.alloc(q_bytes);
  core::ReplicaPtr d_point = session.alloc(q_bytes);
  core::ReplicaPtr d_range = session.alloc(q_bytes);
  session.h2d(d_keys, inner_keys_.data(), keys_bytes);
  session.h2d(d_leaves, leaf_values_.data(), leaf_bytes);
  session.h2d(d_q, queries_.data(), q_bytes);
  session.h2d(d_hi, range_hi_.data(), q_bytes);

  const u32 blocks = ceil_div(num_queries_, 256);
  session.launch(build_point_query(kFanout, depth_), sim::Dim3{blocks, 1, 1},
                 sim::Dim3{256, 1, 1},
                 {d_keys, d_leaves, d_q, d_point, num_queries_});
  session.launch(build_range_query(kFanout, depth_), sim::Dim3{blocks, 1, 1},
                 sim::Dim3{256, 1, 1},
                 {d_keys, d_leaves, d_q, d_hi, d_range, num_queries_});
  session.sync();

  result_point_.resize(num_queries_);
  result_range_.resize(num_queries_);
  session.d2h(result_point_.data(), d_point, q_bytes);
  session.d2h(result_range_.data(), d_range, q_bytes);
  session.compare(d_point, q_bytes, result_point_.data());
  session.compare(d_range, q_bytes, result_range_.data());
}

bool BTree::verify() const {
  return result_point_ == reference_point_ && result_range_ == reference_range_;
}

}  // namespace higpu::workloads
