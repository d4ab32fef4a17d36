#include "analyze/tape_audit.h"

#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "autograd/op_def.h"

namespace embsr {
namespace analyze {

std::vector<ag::Node*> ReachableNodes(const ag::Variable& root) {
  std::vector<ag::Node*> order;
  if (!root.defined()) return order;
  std::unordered_set<ag::Node*> visited;
  std::vector<ag::Node*> stack{root.node().get()};
  visited.insert(root.node().get());
  while (!stack.empty()) {
    ag::Node* cur = stack.back();
    stack.pop_back();
    order.push_back(cur);
    for (const auto& p : cur->parents) {
      if (visited.insert(p.get()).second) stack.push_back(p.get());
    }
  }
  return order;
}

TapeAuditReport AuditTape(const ag::Variable& loss,
                          const std::vector<nn::NamedParameter>& params,
                          const ag::Tape& tape) {
  TapeAuditReport report;
  auto fail = [&report](const std::string& msg) {
    report.failures.push_back(msg);
  };

  if (!loss.defined()) {
    fail("audit root (loss) is an undefined Variable");
    return report;
  }

  const std::vector<ag::Node*> reachable_order = ReachableNodes(loss);
  std::unordered_set<ag::Node*> reachable(reachable_order.begin(),
                                          reachable_order.end());

  report.stats.tape_nodes = static_cast<int64_t>(tape.nodes().size());
  report.stats.reachable_nodes = static_cast<int64_t>(reachable_order.size());
  report.stats.parameters = static_cast<int64_t>(params.size());
  for (ag::Node* n : reachable_order) {
    report.stats.edges += static_cast<int64_t>(n->parents.size());
    ++report.stats.op_histogram[ag::OpName(*n)];
  }

  // Invariants 4 & 5: parameters are distinct leaves. Aliased names would
  // double-count gradients; a parameter with parents is rebuilt every
  // forward pass and never actually trains.
  std::unordered_map<ag::Node*, std::string> param_name_of_node;
  std::unordered_map<const float*, std::string> param_name_of_buffer;
  for (const nn::NamedParameter& p : params) {
    if (!p.variable.defined()) {
      fail("parameter '" + p.name + "' is an undefined Variable");
      continue;
    }
    ag::Node* node = p.variable.node().get();
    report.stats.parameter_scalars += node->value.size();
    auto [node_it, node_fresh] = param_name_of_node.emplace(node, p.name);
    if (!node_fresh) {
      fail("aliased parameters: '" + p.name + "' and '" + node_it->second +
           "' share one graph node");
    }
    auto [buf_it, buf_fresh] =
        param_name_of_buffer.emplace(node->value.data(), p.name);
    if (!buf_fresh && node_fresh) {
      fail("aliased parameters: '" + p.name + "' and '" + buf_it->second +
           "' share one value buffer");
    }
    if (!node->parents.empty() || node->backward_fn) {
      fail("parameter '" + p.name + "' is not a leaf (produced by op '" +
           std::string(ag::OpName(*node)) + "')");
    }
    if (!node->requires_grad) {
      fail("parameter '" + p.name + "' does not require grad");
    }
  }

  // Expected accumulation count per node: one per consumer edge whose
  // consumer's backward actually ran (mirrors Variable::Backward, which
  // fires backward_fn for reachable nodes with grad_ready), plus one at
  // the root for the Backward() seed.
  std::unordered_map<ag::Node*, int64_t> expected;
  for (ag::Node* n : reachable_order) {
    if (!n->backward_fn || !n->grad_ready) continue;
    for (const auto& p : n->parents) {
      if (p->requires_grad) ++expected[p.get()];
    }
  }
  ++expected[loss.node().get()];

  // Invariant 1: every parameter on a path to the loss, gradient received.
  for (const nn::NamedParameter& p : params) {
    if (!p.variable.defined()) continue;
    ag::Node* node = p.variable.node().get();
    if (reachable.count(node) == 0 || node->accum_count == 0) {
      fail("dead parameter '" + p.name + "' (" +
           (reachable.count(node) ? "reachable but received no gradient"
                                  : "not reachable from the loss") +
           ")");
    }
  }

  // Invariant 7: every requires_grad leaf the loss reaches is registered.
  for (ag::Node* n : reachable_order) {
    if (!n->requires_grad || !n->parents.empty() || n->backward_fn ||
        param_name_of_node.count(n) > 0) {
      continue;
    }
    fail("unregistered leaf producing " + n->value.ShapeString() +
         ": requires grad and reaches the loss, but is not a registered "
         "parameter");
  }

  // Invariant 2: accumulation count equals fan-out for every reachable
  // requires_grad node.
  for (ag::Node* n : reachable_order) {
    if (!n->requires_grad) continue;
    const auto it = expected.find(n);
    const int64_t want = it == expected.end() ? 0 : it->second;
    if (n->accum_count != want) {
      std::ostringstream msg;
      msg << "gradient accumulation mismatch on op '" << ag::OpName(*n) << "'";
      const auto name_it = param_name_of_node.find(n);
      if (name_it != param_name_of_node.end()) {
        msg << " (parameter '" << name_it->second << "')";
      }
      msg << ": accumulated " << n->accum_count << " times, graph fan-out is "
          << want;
      fail(msg.str());
    }
  }

  // Invariant 3: no orphaned ops — everything recorded that carries
  // requires_grad must be an ancestor of the loss.
  for (const auto& node : tape.nodes()) {
    if (!node->requires_grad || reachable.count(node.get())) continue;
    fail("orphaned op '" + std::string(ag::OpName(*node)) + "' producing " +
         node->value.ShapeString() +
         ": recorded on the tape but unreachable from the loss");
  }

  // Invariant 6 and the recorded bytes, over every node the graph holds:
  // the tape's, then those built before it opened (parameters, cached
  // constants), whose values were not allocated by this pass.
  std::unordered_set<ag::Node*> on_tape;
  std::vector<ag::Node*> nodes;
  for (const auto& node : tape.nodes()) {
    if (on_tape.insert(node.get()).second) nodes.push_back(node.get());
  }
  for (ag::Node* n : reachable_order) {
    if (on_tape.count(n) == 0) nodes.push_back(n);
  }
  for (ag::Node* n : nodes) {
    const int64_t bytes = n->value.size() * static_cast<int64_t>(sizeof(float));
    if (on_tape.count(n) > 0) report.stats.recorded_bytes += bytes;
    if (n->accum_count > 0) report.stats.recorded_bytes += bytes;
    if (n->transposed != nullptr) report.stats.recorded_bytes += bytes;
    if (n->def == nullptr || n->parents.empty()) continue;
    ++report.stats.shapes_checked;
    if (std::string e = n->def->shape_rule(*n); !e.empty()) {
      fail("shape rule: " + e);
    }
  }

  return report;
}

std::string TapeAuditReport::ToString() const {
  std::ostringstream out;
  out << "tape audit: " << (ok() ? "OK" : "FAILED") << " — "
      << stats.reachable_nodes << "/" << stats.tape_nodes
      << " nodes reachable, " << stats.edges << " edges, " << stats.parameters
      << " parameters (" << stats.parameter_scalars << " scalars), "
      << stats.shapes_checked << " shapes checked, " << stats.recorded_bytes
      << " recorded bytes";
  for (const std::string& f : failures) out << "\n  - " << f;
  return out.str();
}

}  // namespace analyze
}  // namespace embsr
