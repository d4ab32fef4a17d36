#include "analyze/graph_dump.h"

#include <sstream>
#include <unordered_map>

#include "autograd/op_def.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace embsr {
namespace analyze {

namespace {

/// Stable small ids in discovery order, plus the parameter-name lookup both
/// renderers need.
struct GraphIndex {
  std::vector<ag::Node*> order;
  std::unordered_map<ag::Node*, int64_t> id;
  std::unordered_map<ag::Node*, std::string> param_name;

  GraphIndex(const ag::Variable& loss,
             const std::vector<nn::NamedParameter>& params) {
    order = ReachableNodes(loss);
    for (size_t i = 0; i < order.size(); ++i) {
      id.emplace(order[i], static_cast<int64_t>(i));
    }
    for (const nn::NamedParameter& p : params) {
      if (p.variable.defined()) {
        param_name.emplace(p.variable.node().get(), p.name);
      }
    }
  }

  const std::string* ParamName(ag::Node* n) const {
    auto it = param_name.find(n);
    return it == param_name.end() ? nullptr : &it->second;
  }
};

}  // namespace

std::string ToDot(const ag::Variable& loss,
                  const std::vector<nn::NamedParameter>& params) {
  const GraphIndex g(loss, params);
  std::ostringstream out;
  out << "digraph autograd {\n  rankdir=BT;\n";
  for (ag::Node* n : g.order) {
    const int64_t id = g.id.at(n);
    const std::string* pname = g.ParamName(n);
    out << "  n" << id << " [label=\""
        << (pname != nullptr ? *pname : std::string(ag::OpName(*n))) << "\\n"
        << n->value.ShapeString() << "\""
        << (pname != nullptr ? ", shape=box" : "")
        << (n->requires_grad ? "" : ", style=dotted") << "];\n";
  }
  // Edges point input -> consumer: data-flow direction.
  for (ag::Node* n : g.order) {
    for (const auto& p : n->parents) {
      out << "  n" << g.id.at(p.get()) << " -> n" << g.id.at(n) << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

std::string ToJson(const ag::Variable& loss,
                   const std::vector<nn::NamedParameter>& params) {
  const GraphIndex g(loss, params);
  obs::JsonWriter w;
  w.BeginObject();
  w.Key("nodes").BeginArray();
  for (ag::Node* n : g.order) {
    const std::string* pname = g.ParamName(n);
    w.BeginObject();
    w.Key("id").Int(g.id.at(n));
    w.Key("op").String(ag::OpName(*n));
    w.Key("shape").String(n->value.ShapeString());
    w.Key("requires_grad").Bool(n->requires_grad);
    if (pname != nullptr) w.Key("param").String(*pname);
    w.EndObject();
  }
  w.EndArray();
  w.Key("edges").BeginArray();
  for (ag::Node* n : g.order) {
    for (const auto& p : n->parents) {
      w.BeginArray().Int(g.id.at(p.get())).Int(g.id.at(n)).EndArray();
    }
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

void ExportTapeStats(const TapeAuditStats& stats) {
  obs::Registry& reg = obs::Registry::Global();
  reg.GetGauge("analyze/graph_nodes")
      ->Set(static_cast<double>(stats.reachable_nodes));
  reg.GetGauge("analyze/graph_edges")->Set(static_cast<double>(stats.edges));
  reg.GetGauge("analyze/graph_params")
      ->Set(static_cast<double>(stats.parameters));
  reg.GetCounter("analyze/audits_total")->Increment();
}

}  // namespace analyze
}  // namespace embsr
