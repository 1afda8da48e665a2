#include "workloads/bfs.h"

#include <deque>

#include "workloads/kernel_util.h"

namespace higpu::workloads {

namespace {

/// Kernel 1: expand the current frontier.
/// if (tid < n && mask[tid]) { mask[tid]=0;
///   for e in [off[tid], off[tid+1]): id=edges[e];
///     if (!visited[id]) { cost[id]=cost[tid]+1; upd[id]=1; } }
isa::ProgramPtr build_bfs_kernel1() {
  using namespace isa;
  KernelBuilder kb("bfs_kernel1");

  Reg off = kb.reg(), edg = kb.reg(), mask = kb.reg(), upd = kb.reg(),
      vis = kb.reg(), cost = kb.reg(), n = kb.reg();
  kb.ldp(off, 0);
  kb.ldp(edg, 1);
  kb.ldp(mask, 2);
  kb.ldp(upd, 3);
  kb.ldp(vis, 4);
  kb.ldp(cost, 5);
  kb.ldp(n, 6);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  Reg a_mask = util::elem_addr(kb, mask, tid);
  Reg v_mask = kb.reg();
  kb.ldg(v_mask, a_mask);
  PredReg inactive = kb.pred();
  kb.setp(inactive, CmpOp::kEq, DType::kI32, v_mask, imm(0));
  kb.bra(done).guard_if(inactive);
  kb.stg(a_mask, imm(0));

  // my_cost = cost[tid] + 1
  Reg a_cost = util::elem_addr(kb, cost, tid);
  Reg my_cost = kb.reg();
  kb.ldg(my_cost, a_cost);
  kb.iadd(my_cost, my_cost, imm(1));

  // edge range
  Reg a_off = util::elem_addr(kb, off, tid);
  Reg e = kb.reg(), e_end = kb.reg();
  kb.ldg(e, a_off);
  kb.ldg(e_end, a_off, 4);

  Label loop = kb.label(), loop_end = kb.label();
  kb.bind(loop);
  PredReg no_more = kb.pred();
  kb.setp(no_more, CmpOp::kGe, DType::kI32, e, e_end);
  kb.bra(loop_end).guard_if(no_more);

  Reg a_e = util::elem_addr(kb, edg, e);
  Reg id = kb.reg();
  kb.ldg(id, a_e);
  Reg a_vis = util::elem_addr(kb, vis, id);
  Reg v_vis = kb.reg();
  kb.ldg(v_vis, a_vis);
  PredReg fresh = kb.pred();
  kb.setp(fresh, CmpOp::kEq, DType::kI32, v_vis, imm(0));
  Reg a_nc = kb.reg(), a_nu = kb.reg();
  kb.imad(a_nc, id, imm(4), cost).guard_if(fresh);
  kb.stg(a_nc, my_cost).guard_if(fresh);
  kb.imad(a_nu, id, imm(4), upd).guard_if(fresh);
  kb.stg(a_nu, imm(1)).guard_if(fresh);

  kb.iadd(e, e, imm(1));
  kb.bra(loop);
  kb.bind(loop_end);
  kb.bind(done);
  kb.exit();
  return kb.build();
}

/// Kernel 2: promote updated nodes into the next frontier.
/// if (tid < n && upd[tid]) { mask[tid]=1; visited[tid]=1; *over=1; upd[tid]=0; }
isa::ProgramPtr build_bfs_kernel2() {
  using namespace isa;
  KernelBuilder kb("bfs_kernel2");

  Reg mask = kb.reg(), upd = kb.reg(), vis = kb.reg(), over = kb.reg(),
      n = kb.reg();
  kb.ldp(mask, 0);
  kb.ldp(upd, 1);
  kb.ldp(vis, 2);
  kb.ldp(over, 3);
  kb.ldp(n, 4);

  Reg tid = kb.global_tid_x();
  Label done = kb.label();
  util::exit_if_ge(kb, tid, n, done);

  Reg a_upd = util::elem_addr(kb, upd, tid);
  Reg v_upd = kb.reg();
  kb.ldg(v_upd, a_upd);
  PredReg idle = kb.pred();
  kb.setp(idle, CmpOp::kEq, DType::kI32, v_upd, imm(0));
  kb.bra(done).guard_if(idle);

  Reg a_mask = util::elem_addr(kb, mask, tid);
  Reg a_vis = util::elem_addr(kb, vis, tid);
  kb.stg(a_mask, imm(1));
  kb.stg(a_vis, imm(1));
  kb.stg(over, imm(1));
  kb.stg(a_upd, imm(0));
  kb.bind(done);
  kb.exit();
  return kb.build();
}

}  // namespace

void Bfs::setup(Scale scale, u64 seed) {
  num_nodes_ = scale == Scale::kTest ? 512 : 4096;
  Rng rng(seed);

  // Random graph: ring edges (ensures connectivity) + random extra edges.
  std::vector<std::vector<u32>> adj(num_nodes_);
  for (u32 v = 0; v < num_nodes_; ++v) {
    adj[v].push_back((v + 1) % num_nodes_);
    const u32 extra = 1 + static_cast<u32>(rng.next_below(4));
    for (u32 k = 0; k < extra; ++k)
      adj[v].push_back(static_cast<u32>(rng.next_below(num_nodes_)));
  }
  offsets_.assign(num_nodes_ + 1, 0);
  edges_.clear();
  for (u32 v = 0; v < num_nodes_; ++v) {
    offsets_[v] = static_cast<u32>(edges_.size());
    for (u32 e : adj[v]) edges_.push_back(e);
  }
  offsets_[num_nodes_] = static_cast<u32>(edges_.size());

  // CPU reference BFS from node 0.
  reference_cost_.assign(num_nodes_, -1);
  reference_cost_[0] = 0;
  std::deque<u32> q{0};
  while (!q.empty()) {
    const u32 v = q.front();
    q.pop_front();
    for (u32 i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      const u32 to = edges_[i];
      if (reference_cost_[to] < 0) {
        reference_cost_[to] = reference_cost_[v] + 1;
        q.push_back(to);
      }
    }
  }
  result_cost_.clear();
}

void Bfs::run(RunContext& ctx) {
  core::ExecSession& session = ctx.session();
  // Rodinia bfs parses a text graph file (~10 bytes per binary byte).
  const u64 input_bytes =
      static_cast<u64>(num_nodes_ + 1) * 4 + edges_.size() * 4;
  session.device().host_parse(input_bytes * 10);

  const u32 n = num_nodes_;
  const u64 node_bytes = static_cast<u64>(n) * 4;
  const u64 edge_bytes = static_cast<u64>(edges_.size()) * 4;

  core::ReplicaPtr d_off = session.alloc(node_bytes + 4);
  core::ReplicaPtr d_edges = session.alloc(edge_bytes);
  core::ReplicaPtr d_mask = session.alloc(node_bytes);
  core::ReplicaPtr d_upd = session.alloc(node_bytes);
  core::ReplicaPtr d_vis = session.alloc(node_bytes);
  core::ReplicaPtr d_cost = session.alloc(node_bytes);
  core::ReplicaPtr d_over = session.alloc(4);

  session.h2d(d_off, offsets_.data(), node_bytes + 4);
  session.h2d(d_edges, edges_.data(), edge_bytes);
  std::vector<i32> mask(n, 0), vis(n, 0), cost(n, -1);
  mask[0] = 1;
  vis[0] = 1;
  cost[0] = 0;
  std::vector<i32> zero(n, 0);
  session.h2d(d_mask, mask.data(), node_bytes);
  session.h2d(d_upd, zero.data(), node_bytes);
  session.h2d(d_vis, vis.data(), node_bytes);
  session.h2d(d_cost, cost.data(), node_bytes);

  isa::ProgramPtr k1 = build_bfs_kernel1();
  isa::ProgramPtr k2 = build_bfs_kernel2();
  const u32 blocks = ceil_div(n, 256);

  i32 over = 1;
  u32 guard = 0;
  while (over != 0 && guard++ < 2 * num_nodes_) {
    over = 0;
    session.h2d(d_over, &over, 4);
    session.launch(k1, sim::Dim3{blocks, 1, 1}, sim::Dim3{256, 1, 1},
                   {d_off, d_edges, d_mask, d_upd, d_vis, d_cost, n});
    session.launch(k2, sim::Dim3{blocks, 1, 1}, sim::Dim3{256, 1, 1},
                   {d_mask, d_upd, d_vis, d_over, n});
    session.sync();
    session.d2h(&over, d_over, 4);
  }

  result_cost_.resize(n);
  session.d2h(result_cost_.data(), d_cost, node_bytes);
  session.compare(d_cost, node_bytes, result_cost_.data());
}

bool Bfs::verify() const { return result_cost_ == reference_cost_; }

}  // namespace higpu::workloads
