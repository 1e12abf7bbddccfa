#include "graph/serialize.hpp"

#include <map>
#include <sstream>

#include "analysis/verifier.hpp"
#include "util/error.hpp"

namespace vedliot {

namespace {

void emit_attrs(std::ostringstream& os, const AttrMap& attrs) {
  os << "attrs{";
  bool first = true;
  for (const auto& [key, value] : attrs.raw()) {
    if (!first) os << ' ';
    first = false;
    os << key << '=';
    if (const auto* i = std::get_if<std::int64_t>(&value)) {
      os << "int:" << *i;
    } else if (const auto* d = std::get_if<double>(&value)) {
      os << "float:" << *d;
    } else if (const auto* s = std::get_if<std::string>(&value)) {
      os << "str:" << *s;
    } else if (const auto* v = std::get_if<std::vector<std::int64_t>>(&value)) {
      os << "ints:";
      for (std::size_t i = 0; i < v->size(); ++i) {
        if (i) os << ',';
        os << (*v)[i];
      }
    }
  }
  os << '}';
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : s) {
    if (ch == sep) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  out.push_back(cur);
  return out;
}

// std::stoll and std::stod throw std::invalid_argument or std::out_of_range
// on a malformed number; corrupt text must fail as a GraphError instead.
std::int64_t parse_int(const std::string& field) {
  try {
    return std::stoll(field);
  } catch (const std::logic_error&) {
    throw GraphError("malformed integer: '" + field + "'");
  }
}

double parse_float(const std::string& field) {
  try {
    return std::stod(field);
  } catch (const std::logic_error&) {
    throw GraphError("malformed number: '" + field + "'");
  }
}

AttrMap parse_attrs(const std::string& body) {
  AttrMap attrs;
  if (body.empty()) return attrs;
  for (const auto& item : split(body, ' ')) {
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) throw GraphError("malformed attribute: " + item);
    const std::string key = item.substr(0, eq);
    const std::string rest = item.substr(eq + 1);
    const auto colon = rest.find(':');
    if (colon == std::string::npos) throw GraphError("malformed attribute value: " + item);
    const std::string type = rest.substr(0, colon);
    const std::string value = rest.substr(colon + 1);
    if (type == "int") {
      attrs.set_int(key, parse_int(value));
    } else if (type == "float") {
      attrs.set_float(key, parse_float(value));
    } else if (type == "str") {
      attrs.set_str(key, value);
    } else if (type == "ints") {
      std::vector<std::int64_t> v;
      if (!value.empty()) {
        for (const auto& piece : split(value, ',')) v.push_back(parse_int(piece));
      }
      attrs.set_ints(key, std::move(v));
    } else {
      throw GraphError("unknown attribute type: " + type);
    }
  }
  return attrs;
}

}  // namespace

std::string to_text(const Graph& g) {
  std::ostringstream os;
  os << "graph " << g.name() << '\n';
  // Dead nodes are compacted away, so emit dense indexes.
  std::map<NodeId, NodeId> dense;
  for (NodeId id : g.topo_order()) dense[id] = static_cast<NodeId>(dense.size());
  for (NodeId id : g.topo_order()) {
    const Node& n = g.node(id);
    os << "node " << op_name(n.kind) << " \"" << n.name << "\" in=";
    for (std::size_t i = 0; i < n.inputs.size(); ++i) {
      if (i) os << ',';
      os << dense.at(n.inputs[i]);
    }
    os << ' ';
    emit_attrs(os, n.attrs);
    if (n.kind == OpKind::kInput) {
      os << " shape=";
      for (std::size_t i = 0; i < n.out_shape.rank(); ++i) {
        if (i) os << ',';
        os << n.out_shape.dim(i);
      }
    }
    os << '\n';
  }
  return os.str();
}

Graph from_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  VEDLIOT_CHECK(std::getline(is, line), "empty graph text");
  if (line.rfind("graph ", 0) != 0) throw GraphError("expected 'graph <name>' header");
  Graph g(line.substr(6));

  // ids in the file refer to the live-only order; remap onto new ids.
  std::map<NodeId, NodeId> remap;
  NodeId file_id = 0;

  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.rfind("node ", 0) != 0) throw GraphError("expected 'node' line, got: " + line);
    std::string rest = line.substr(5);

    const auto sp = rest.find(' ');
    if (sp == std::string::npos) throw GraphError("malformed node line: " + line);
    const OpKind kind = parse_op(rest.substr(0, sp));
    rest = rest.substr(sp + 1);

    if (rest.empty() || rest[0] != '"') throw GraphError("expected quoted name: " + line);
    const auto endq = rest.find('"', 1);
    if (endq == std::string::npos) throw GraphError("unterminated name: " + line);
    const std::string name = rest.substr(1, endq - 1);
    rest = rest.substr(endq + 1);
    if (!rest.empty() && rest[0] == ' ') rest = rest.substr(1);

    if (rest.rfind("in=", 0) != 0) throw GraphError("expected in= list: " + line);
    const auto in_end = rest.find(' ');
    const std::string in_body = rest.substr(3, in_end == std::string::npos ? std::string::npos : in_end - 3);
    rest = in_end == std::string::npos ? std::string() : rest.substr(in_end + 1);

    std::vector<NodeId> inputs;
    if (!in_body.empty()) {
      for (const auto& piece : split(in_body, ',')) {
        const NodeId orig = static_cast<NodeId>(parse_int(piece));
        auto it = remap.find(orig);
        if (it == remap.end()) throw GraphError("node references unknown input id: " + line);
        inputs.push_back(it->second);
      }
    }

    AttrMap attrs;
    if (rest.rfind("attrs{", 0) == 0) {
      const auto close = rest.find('}');
      if (close == std::string::npos) throw GraphError("unterminated attrs: " + line);
      attrs = parse_attrs(rest.substr(6, close - 6));
      rest = rest.substr(close + 1);
      if (!rest.empty() && rest[0] == ' ') rest = rest.substr(1);
    }

    NodeId new_id;
    if (kind == OpKind::kInput) {
      if (rest.rfind("shape=", 0) != 0) throw GraphError("Input node missing shape=: " + line);
      std::vector<std::int64_t> dims;
      for (const auto& piece : split(rest.substr(6), ',')) dims.push_back(parse_int(piece));
      new_id = g.add_input(name, Shape{std::move(dims)});
      // Inputs carry attrs too (e.g. act_scale after calibration); dropping
      // them here used to silently de-calibrate round-tripped graphs.
      if (!attrs.raw().empty()) {
        g.node(new_id).attrs = std::move(attrs);
        g.touch();
      }
    } else {
      new_id = g.add(kind, name, std::move(inputs), std::move(attrs));
    }
    remap[file_id++] = new_id;
  }
  // Full IR verification (not just Graph::validate): hand-edited or corrupt
  // text is rejected with the complete findings table in the error message.
  analysis::verify_or_throw(g);
  return g;
}

}  // namespace vedliot
