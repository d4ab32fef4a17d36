#include "analyze/graph_plan.h"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "analyze/tape_audit.h"
#include "autograd/op_def.h"
#include "obs/json.h"

namespace embsr {
namespace analyze {

namespace {

constexpr int64_t kBytesPerElem = static_cast<int64_t>(sizeof(float));

/// Per-node bookkeeping while the plan is under construction.
struct NodeInfo {
  int64_t fwd_step = -1;  // tape creation index; -1 for persistent nodes
  int64_t node_id = 0;
  int64_t value_buf = -1;
  int64_t exec_step = -1;  // backward execution step, -1 if never executed
  std::vector<int64_t> accum_steps;
};

bool Contains(const std::vector<std::string>& list, const std::string& s) {
  return std::find(list.begin(), list.end(), s) != list.end();
}

void NoteValueRead(PlanBuffer* b, int64_t step) {
  ++b->reads;
  b->last_read_step = std::max(b->last_read_step, step);
}

/// Runs each op node's shape rule; leaves and opaque op nodes are counted
/// and skipped. Returns all diagnostics, "[shape-rule]"-prefixed.
std::vector<std::string> CheckShapes(const std::vector<ag::Node*>& nodes,
                                     ShapeCheckStats* stats) {
  std::vector<std::string> failures;
  for (ag::Node* n : nodes) {
    if (n->def == nullptr) {
      ++stats->leaves;
      continue;
    }
    if (n->parents.empty()) {
      // Ops over non-differentiable inputs record no parents (MakeOp only
      // keeps them when a gradient will flow); their inputs are invisible,
      // so the rule cannot run.
      ++stats->skipped;
      continue;
    }
    ++stats->checked;
    if (std::string e = n->def->shape_rule(*n); !e.empty()) {
      failures.push_back("[shape-rule] " + e);
    }
  }
  return failures;
}

}  // namespace

GraphPlan BuildGraphPlan(const ag::Variable& loss,
                         const std::vector<nn::NamedParameter>& params,
                         const ag::Tape& tape) {
  GraphPlan plan;
  if (!loss.defined()) {
    plan.build_failures.push_back(
        "[accum-model] plan root (loss) is an undefined Variable");
    return plan;
  }
  ag::Node* root = loss.node().get();

  // ---- Node universe: tape nodes in creation order (forward steps), then
  // reachable pre-tape nodes (parameters and cached constants: persistent).
  std::vector<ag::Node*> nodes;
  std::unordered_map<ag::Node*, NodeInfo> info;
  const int64_t forward_steps = static_cast<int64_t>(tape.nodes().size());
  for (int64_t i = 0; i < forward_steps; ++i) {
    ag::Node* n = tape.nodes()[static_cast<size_t>(i)].get();
    auto [it, fresh] = info.try_emplace(n);
    if (!fresh) continue;  // defensive: a tape records each node once
    it->second.fwd_step = i;
    it->second.node_id = i;
    nodes.push_back(n);
  }
  int64_t persistent_nodes = 0;
  for (ag::Node* n : ReachableNodes(loss)) {
    auto [it, fresh] = info.try_emplace(n);
    if (!fresh) continue;
    it->second.node_id = -(++persistent_nodes);
    nodes.push_back(n);
  }
  if (info.count(root) == 0) {
    // Cannot happen (the root is reachable from itself); bail defensively.
    plan.build_failures.push_back("[accum-model] root missing from universe");
    return plan;
  }

  std::unordered_map<ag::Node*, std::string> param_name;
  for (const nn::NamedParameter& p : params) {
    if (p.variable.defined()) {
      param_name.emplace(p.variable.node().get(), p.name);
    }
  }

  // ---- Shape pass: every recorded op's output must re-derive from its
  // inputs before the sizes below are trusted for layout.
  plan.build_failures = CheckShapes(nodes, &plan.stats.shapes);

  // ---- Backward schedule: replay exactly what Variable::Backward() runs.
  const std::vector<ag::Node*> post = ag::BackwardPostOrder(loss);
  std::unordered_set<ag::Node*> ready;
  ready.insert(root);
  info[root].accum_steps.push_back(forward_steps);  // the gradient seed
  int64_t step = forward_steps;
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    ag::Node* n = *it;
    if (!n->backward_fn || ready.count(n) == 0) continue;
    info[n].exec_step = ++step;
    for (const auto& p : n->parents) {
      if (!p->requires_grad) continue;
      info[p.get()].accum_steps.push_back(step);
      ready.insert(p.get());
    }
  }
  const int64_t backward_steps = step - forward_steps;
  const int64_t end_step = step + 1;
  plan.end_step = end_step;
  plan.stats.tape_nodes = forward_steps;
  plan.stats.persistent_nodes = persistent_nodes;
  plan.stats.forward_steps = forward_steps;
  plan.stats.backward_steps = backward_steps;

  // ---- Accumulation cross-check: the simulated schedule must agree with
  // what the runtime recorded (valid after exactly one Backward since
  // ZeroGrad — the documented precondition).
  for (ag::Node* n : nodes) {
    const NodeInfo& ni = info[n];
    const int64_t simulated = static_cast<int64_t>(ni.accum_steps.size());
    if (simulated != n->accum_count) {
      std::ostringstream out;
      out << "[accum-model] node #" << ni.node_id << " (op '" << ag::OpName(*n)
          << "'): schedule simulates " << simulated
          << " gradient accumulation(s), runtime recorded " << n->accum_count;
      plan.build_failures.push_back(out.str());
    }
  }

  // ---- Buffers: one value buffer per node; one grad buffer per node that
  // accumulates. Gradient buffers are always transient — they are allocated
  // during the backward pass being planned.
  for (ag::Node* n : nodes) {
    NodeInfo& ni = info[n];
    PlanBuffer b;
    b.id = static_cast<int64_t>(plan.buffers.size());
    b.node_id = ni.node_id;
    auto it = param_name.find(n);
    b.label = it != param_name.end() ? it->second : std::string(ag::OpName(*n));
    b.shape = n->value.ShapeString();
    b.persistent = ni.fwd_step < 0;
    b.requires_grad = n->requires_grad;
    b.is_root = n == root;
    b.size_bytes = n->value.size() * kBytesPerElem;
    b.def_step = ni.fwd_step;  // -1 for persistent: allocated pre-tape
    ni.value_buf = b.id;
    plan.buffers.push_back(std::move(b));
  }
  for (ag::Node* n : nodes) {
    const NodeInfo& ni = info[n];
    if (ni.accum_steps.empty()) continue;
    PlanBuffer g;
    g.id = static_cast<int64_t>(plan.buffers.size());
    g.node_id = ni.node_id;
    g.label = plan.buffers[static_cast<size_t>(ni.value_buf)].label;
    g.shape = n->value.ShapeString();
    g.is_grad = true;
    g.requires_grad = true;
    g.size_bytes = n->value.size() * kBytesPerElem;
    g.def_step = ni.accum_steps.front();
    g.accum_steps = ni.accum_steps;
    // The grad is read once: by this node's own backward execution, or —
    // for leaves, where no backward runs — by the optimizer at end-of-graph.
    g.last_read_step = ni.exec_step >= 0 ? ni.exec_step : end_step;
    g.reads = 1;
    g.last_use_step = std::max(g.last_read_step, ni.accum_steps.back());
    plan.buffers.push_back(std::move(g));
  }

  // ---- Value reads. Forward: each recorded op reads its parents at its
  // own creation step (and contributes a dataflow edge). Backward: an
  // executed node reads its own value and every parent value (the
  // conservative superset of what the closures in ops.cc touch). End: the
  // caller reads the root value.
  for (ag::Node* n : nodes) {
    const NodeInfo& ni = info[n];
    if (ni.fwd_step >= 0) {
      for (const auto& p : n->parents) {
        PlanBuffer* pb = &plan.buffers[static_cast<size_t>(
            info[p.get()].value_buf)];
        NoteValueRead(pb, ni.fwd_step);
        plan.edges.emplace_back(pb->id, ni.value_buf);
      }
    }
    if (ni.exec_step >= 0) {
      NoteValueRead(&plan.buffers[static_cast<size_t>(ni.value_buf)],
                    ni.exec_step);
      for (const auto& p : n->parents) {
        NoteValueRead(&plan.buffers[static_cast<size_t>(
                          info[p.get()].value_buf)],
                      ni.exec_step);
      }
    }
  }
  NoteValueRead(&plan.buffers[static_cast<size_t>(info[root].value_buf)],
                end_step);
  for (PlanBuffer& b : plan.buffers) {
    if (b.is_grad || b.persistent) continue;
    b.last_use_step = std::max(b.def_step, b.last_read_step);
  }

  // ---- First-fit arena layout over the transient intervals, plus the
  // liveness peak (what a perfect arena needs) and the total (what the
  // current heap execution holds at its high-water mark).
  std::vector<int64_t> layout_order;
  for (const PlanBuffer& b : plan.buffers) {
    if (!b.persistent && b.alias_of < 0) layout_order.push_back(b.id);
  }
  std::stable_sort(layout_order.begin(), layout_order.end(),
                   [&plan](int64_t a, int64_t b) {
                     return plan.buffers[static_cast<size_t>(a)].def_step <
                            plan.buffers[static_cast<size_t>(b)].def_step;
                   });
  std::map<int64_t, int64_t> live_delta;
  for (size_t i = 0; i < layout_order.size(); ++i) {
    PlanBuffer& b = plan.buffers[static_cast<size_t>(layout_order[i])];
    plan.planned_total_bytes += b.size_bytes;
    live_delta[b.def_step] += b.size_bytes;
    live_delta[b.last_use_step + 1] -= b.size_bytes;
    std::vector<std::pair<int64_t, int64_t>> busy;
    for (size_t j = 0; j < i; ++j) {
      const PlanBuffer& o = plan.buffers[static_cast<size_t>(layout_order[j])];
      if (b.def_step <= o.last_use_step && o.def_step <= b.last_use_step) {
        busy.emplace_back(o.offset, o.offset + o.size_bytes);
      }
    }
    std::sort(busy.begin(), busy.end());
    int64_t at = 0;
    for (const auto& [lo, hi] : busy) {
      if (at + b.size_bytes <= lo) break;
      at = std::max(at, hi);
    }
    b.offset = at;
    plan.arena_extent_bytes =
        std::max(plan.arena_extent_bytes, at + b.size_bytes);
  }
  int64_t live = 0;
  for (const auto& [s, delta] : live_delta) {
    live += delta;
    plan.planned_peak_bytes = std::max(plan.planned_peak_bytes, live);
  }
  plan.stats.planned_buffers = static_cast<int64_t>(layout_order.size());
  return plan;
}

PlanVerifyReport VerifyGraphPlan(const GraphPlan& plan,
                                 const PlanOptions& options) {
  PlanVerifyReport report;
  auto fail = [&report](const std::string& msg) {
    report.failures.push_back(msg);
  };
  for (const std::string& f : plan.build_failures) fail(f);

  const int64_t count = static_cast<int64_t>(plan.buffers.size());
  for (const PlanBuffer& b : plan.buffers) {
    std::ostringstream who;
    who << (b.is_grad ? "grad" : "value") << " buffer #" << b.id << " ('"
        << b.label << "' " << b.shape << ")";

    if (b.alias_of >= 0) {
      // Reshape-style views: legal only onto a same-sized, own-storage,
      // transient buffer whose lifetime covers the view — anything else is
      // the growth/alias bug class the PR-6 memory tracker caught at
      // runtime in Tensor::Reshape.
      if (b.alias_of >= count || b.alias_of == b.id) {
        fail("[reshape-alias-hazard] " + who.str() +
             " aliases a buffer that does not exist");
        continue;
      }
      const PlanBuffer& t = plan.buffers[static_cast<size_t>(b.alias_of)];
      if (t.alias_of >= 0) {
        fail("[reshape-alias-hazard] " + who.str() +
             " aliases another alias (chains are not verifiable)");
      }
      if (t.size_bytes != b.size_bytes) {
        std::ostringstream out;
        out << "[reshape-alias-hazard] " << who.str() << " views "
            << t.size_bytes << "B storage as " << b.size_bytes
            << "B (a reshape must preserve the byte count)";
        fail(out.str());
      }
      if (t.persistent) continue;  // persistent storage outlives any view
      if (b.def_step < t.def_step || b.last_use_step > t.last_use_step) {
        fail("[reshape-alias-hazard] " + who.str() +
             " outlives the buffer it views");
      }
      continue;
    }
    if (b.persistent) continue;  // not arena-planned: no interval to vet

    if (b.size_bytes <= 0 || b.offset < 0 || b.last_use_step < b.def_step) {
      fail("[malformed-interval] " + who.str() +
           " has no offset, a non-positive size, or an inverted interval");
      continue;
    }
    if (!b.is_grad && b.requires_grad && !b.is_root && b.reads == 0 &&
        !Contains(options.allowed_dead_stores, b.label)) {
      fail("[dead-store] " + who.str() +
           " is written but never read before free (computed output dropped "
           "on the floor)");
    }
    if (b.is_grad && !b.accum_steps.empty()) {
      const int64_t first_accum =
          *std::min_element(b.accum_steps.begin(), b.accum_steps.end());
      const int64_t last_accum =
          *std::max_element(b.accum_steps.begin(), b.accum_steps.end());
      if (b.def_step != first_accum) {
        fail("[malformed-interval] " + who.str() +
             " is not defined at its first accumulation");
      }
      if (b.last_use_step < last_accum) {
        std::ostringstream out;
        out << "[grad-freed-before-last-accumulation] " << who.str()
            << " is freed at step " << b.last_use_step
            << " but still accumulates at step " << last_accum;
        fail(out.str());
      }
      const int64_t needed = std::max(last_accum, b.last_read_step);
      if (b.last_use_step > needed) {
        std::ostringstream out;
        out << "[grad-outlives-accumulation] " << who.str()
            << " is kept until step " << b.last_use_step
            << " but its last accumulation/read is step " << needed;
        fail(out.str());
      }
    }
  }

  // The core guarantee: no two simultaneously-live own-storage buffers may
  // share arena bytes. Pairwise is O(B^2) with B in the hundreds — cheap,
  // and simple enough to trust as a *verifier* (vs. the planner it checks).
  for (int64_t i = 0; i < count; ++i) {
    const PlanBuffer& a = plan.buffers[static_cast<size_t>(i)];
    if (a.persistent || a.alias_of >= 0 || a.offset < 0) continue;
    for (int64_t j = i + 1; j < count; ++j) {
      const PlanBuffer& b = plan.buffers[static_cast<size_t>(j)];
      if (b.persistent || b.alias_of >= 0 || b.offset < 0) continue;
      const bool live_together =
          a.def_step <= b.last_use_step && b.def_step <= a.last_use_step;
      const bool bytes_overlap = a.offset < b.offset + b.size_bytes &&
                                 b.offset < a.offset + a.size_bytes;
      if (live_together && bytes_overlap) {
        std::ostringstream out;
        out << "[overlapping-intervals] buffers #" << a.id << " ('" << a.label
            << "' steps " << a.def_step << ".." << a.last_use_step << " @"
            << a.offset << "+" << a.size_bytes << ") and #" << b.id << " ('"
            << b.label << "' steps " << b.def_step << ".." << b.last_use_step
            << " @" << b.offset << "+" << b.size_bytes
            << ") are live together and share arena bytes";
        fail(out.str());
      }
    }
  }
  return report;
}

std::string PlanVerifyReport::ToString() const {
  std::ostringstream out;
  out << "graph plan verify: "
      << (failures.empty() ? "ok" : std::to_string(failures.size()) +
                                        " failure(s)")
      << "\n";
  for (const std::string& f : failures) out << "  " << f << "\n";
  return out.str();
}

std::string PlanToJson(const GraphPlan& plan) {
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("planned_total_bytes").Int(plan.planned_total_bytes);
  w.Key("planned_peak_bytes").Int(plan.planned_peak_bytes);
  w.Key("arena_extent_bytes").Int(plan.arena_extent_bytes);
  w.Key("end_step").Int(plan.end_step);
  w.Key("stats").BeginObject();
  w.Key("tape_nodes").Int(plan.stats.tape_nodes);
  w.Key("persistent_nodes").Int(plan.stats.persistent_nodes);
  w.Key("planned_buffers").Int(plan.stats.planned_buffers);
  w.Key("forward_steps").Int(plan.stats.forward_steps);
  w.Key("backward_steps").Int(plan.stats.backward_steps);
  w.Key("shapes_checked").Int(plan.stats.shapes.checked);
  w.Key("shapes_skipped").Int(plan.stats.shapes.skipped);
  w.EndObject();
  w.Key("buffers").BeginArray();
  for (const PlanBuffer& b : plan.buffers) {
    w.BeginObject();
    w.Key("id").Int(b.id);
    w.Key("node").Int(b.node_id);
    w.Key("label").String(b.label);
    w.Key("shape").String(b.shape);
    w.Key("grad").Bool(b.is_grad);
    w.Key("persistent").Bool(b.persistent);
    w.Key("size_bytes").Int(b.size_bytes);
    w.Key("def").Int(b.def_step);
    w.Key("last_use").Int(b.last_use_step);
    w.Key("reads").Int(b.reads);
    if (!b.accum_steps.empty()) {
      w.Key("accums").BeginArray();
      for (int64_t s : b.accum_steps) w.Int(s);
      w.EndArray();
    }
    if (b.offset >= 0) w.Key("offset").Int(b.offset);
    if (b.alias_of >= 0) w.Key("alias_of").Int(b.alias_of);
    w.EndObject();
  }
  w.EndArray();
  w.Key("edges").BeginArray();
  for (const auto& [from, to] : plan.edges) {
    w.BeginArray().Int(from).Int(to).EndArray();
  }
  w.EndArray();
  w.Key("build_failures").BeginArray();
  for (const std::string& f : plan.build_failures) w.String(f);
  w.EndArray();
  w.EndObject();
  return w.str();
}

std::string PlanToDot(const GraphPlan& plan) {
  std::ostringstream out;
  out << "digraph graph_plan {\n  rankdir=BT;\n";
  // Value buffer id per node, so grads can point at their value.
  std::map<int64_t, int64_t> value_of_node;
  for (const PlanBuffer& b : plan.buffers) {
    if (!b.is_grad) value_of_node[b.node_id] = b.id;
  }
  for (const PlanBuffer& b : plan.buffers) {
    out << "  b" << b.id << " [label=\"" << (b.is_grad ? "grad " : "")
        << b.label << "\\n" << b.shape << " " << b.size_bytes << "B";
    if (b.persistent) {
      out << "\\npersistent";
    } else {
      out << "\\ns" << b.def_step << "..s" << b.last_use_step;
      if (b.offset >= 0) out << " @" << b.offset;
    }
    out << "\"";
    if (b.is_grad) out << ", shape=box, style=dashed";
    if (b.persistent) out << ", shape=box";
    out << "];\n";
  }
  for (const auto& [from, to] : plan.edges) {
    out << "  b" << from << " -> b" << to << ";\n";
  }
  for (const PlanBuffer& b : plan.buffers) {
    if (!b.is_grad) continue;
    auto it = value_of_node.find(b.node_id);
    if (it != value_of_node.end()) {
      out << "  b" << it->second << " -> b" << b.id << " [style=dotted];\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace analyze
}  // namespace embsr
