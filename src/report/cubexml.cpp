#include "report/cubexml.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "common/binary_io.hpp"
#include "common/error.hpp"

namespace metascope::report {

// --- writer ----------------------------------------------------------------

namespace {

void xml_escape(std::ostringstream& os, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '<': os << "&lt;"; break;
      case '>': os << "&gt;"; break;
      case '&': os << "&amp;"; break;
      case '"': os << "&quot;"; break;
      default: os << c;
    }
  }
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string to_cube_xml(const Cube& cube) {
  std::ostringstream os;
  os << "<?xml version=\"1.0\"?>\n<cube version=\"1\" ranks=\""
     << cube.num_ranks() << "\">\n";

  os << " <metrics>\n";
  for (std::size_t i = 0; i < cube.metrics.size(); ++i) {
    const auto& d = cube.metrics.def(MetricId{static_cast<int>(i)});
    os << "  <metric id=\"" << d.id.get() << "\" parent=\""
       << d.parent.get() << "\" name=\"";
    xml_escape(os, d.name);
    os << "\" desc=\"";
    xml_escape(os, d.description);
    os << "\"/>\n";
  }
  os << " </metrics>\n <regions>\n";
  for (std::size_t i = 0; i < cube.regions.size(); ++i) {
    os << "  <region id=\"" << i << "\" name=\"";
    xml_escape(os, cube.regions.name(RegionId{static_cast<int>(i)}));
    os << "\"/>\n";
  }
  os << " </regions>\n <calltree>\n";
  for (std::size_t i = 0; i < cube.calls.size(); ++i) {
    const auto& n = cube.calls.node(CallPathId{static_cast<int>(i)});
    os << "  <cnode id=\"" << n.id.get() << "\" region=\""
       << n.region.get() << "\" parent=\"" << n.parent.get() << "\"/>\n";
  }
  os << " </calltree>\n <system>\n";
  for (const auto& mh : cube.system.metahosts) {
    os << "  <metahost id=\"" << mh.id.get() << "\" name=\"";
    xml_escape(os, mh.name);
    os << "\"/>\n";
  }
  for (const auto& loc : cube.system.locations) {
    os << "  <location rank=\"" << loc.process << "\" machine=\""
       << loc.machine.get() << "\" node=\"" << loc.node.get()
       << "\" thread=\"" << loc.thread << "\"/>\n";
  }
  for (const auto& c : cube.system.comms) {
    os << "  <comm id=\"" << c.id.get() << "\" name=\"";
    xml_escape(os, c.name);
    os << "\" members=\"";
    for (std::size_t i = 0; i < c.members.size(); ++i) {
      if (i) os << ' ';
      os << c.members[i];
    }
    os << "\"/>\n";
  }
  os << " </system>\n <severity>\n";
  for (std::size_t m = 0; m < cube.metrics.size(); ++m) {
    const MetricId mid{static_cast<int>(m)};
    std::ostringstream row;
    bool any = false;
    for (std::size_t c = 0; c < cube.calls.size(); ++c) {
      for (Rank r = 0; r < cube.num_ranks(); ++r) {
        const double v = cube.get(mid, CallPathId{static_cast<int>(c)}, r);
        if (v == 0.0) continue;
        any = true;
        row << "   <v c=\"" << c << "\" r=\"" << r << "\">" << fmt_double(v)
            << "</v>\n";
      }
    }
    if (any)
      os << "  <row metric=\"" << m << "\">\n" << row.str() << "  </row>\n";
  }
  os << " </severity>\n</cube>\n";
  return os.str();
}

// --- minimal XML reader ------------------------------------------------------

namespace {

struct XmlNode {
  std::string tag;
  std::map<std::string, std::string> attrs;
  std::string text;
  std::vector<XmlNode> children;

  [[nodiscard]] const std::string& attr(const std::string& key) const {
    auto it = attrs.find(key);
    MSC_CHECK(it != attrs.end(), "xml: missing attribute " + key);
    return it->second;
  }
  [[nodiscard]] int attr_int(const std::string& key) const {
    return std::stoi(attr(key));
  }
  [[nodiscard]] const XmlNode& child(const std::string& tag_name) const {
    for (const auto& c : children)
      if (c.tag == tag_name) return c;
    throw Error("xml: missing element <" + tag_name + ">");
  }
};

class XmlParser {
 public:
  explicit XmlParser(const std::string& text) : t_(text) {}

  XmlNode parse() {
    skip_prolog();
    XmlNode root = parse_element();
    skip_ws();
    MSC_CHECK(pos_ >= t_.size(), "xml: trailing content");
    return root;
  }

 private:
  void skip_ws() {
    while (pos_ < t_.size() && std::isspace(static_cast<unsigned char>(
                                   t_[pos_])))
      ++pos_;
  }

  void skip_prolog() {
    skip_ws();
    if (t_.compare(pos_, 5, "<?xml") == 0) {
      const auto end = t_.find("?>", pos_);
      MSC_CHECK(end != std::string::npos, "xml: unterminated prolog");
      pos_ = end + 2;
    }
  }

  char peek() {
    MSC_CHECK(pos_ < t_.size(), "xml: unexpected end");
    return t_[pos_];
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (pos_ < t_.size() &&
           (std::isalnum(static_cast<unsigned char>(t_[pos_])) ||
            t_[pos_] == '_' || t_[pos_] == '-'))
      ++pos_;
    MSC_CHECK(pos_ > start, "xml: expected name");
    return t_.substr(start, pos_ - start);
  }

  std::string unescape(const std::string& s) {
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
      if (s[i] != '&') {
        out += s[i];
        continue;
      }
      if (s.compare(i, 4, "&lt;") == 0) {
        out += '<';
        i += 3;
      } else if (s.compare(i, 4, "&gt;") == 0) {
        out += '>';
        i += 3;
      } else if (s.compare(i, 5, "&amp;") == 0) {
        out += '&';
        i += 4;
      } else if (s.compare(i, 6, "&quot;") == 0) {
        out += '"';
        i += 5;
      } else {
        throw Error("xml: unknown entity");
      }
    }
    return out;
  }

  XmlNode parse_element() {
    skip_ws();
    MSC_CHECK(peek() == '<', "xml: expected element");
    ++pos_;
    XmlNode node;
    node.tag = parse_name();
    while (true) {
      skip_ws();
      const char c = peek();
      if (c == '/') {
        pos_ += 2;  // "/>"
        MSC_CHECK(t_[pos_ - 1] == '>', "xml: malformed empty element");
        return node;
      }
      if (c == '>') {
        ++pos_;
        break;
      }
      const std::string key = parse_name();
      skip_ws();
      MSC_CHECK(peek() == '=', "xml: expected '='");
      ++pos_;
      skip_ws();
      MSC_CHECK(peek() == '"', "xml: expected '\"'");
      ++pos_;
      const auto end = t_.find('"', pos_);
      MSC_CHECK(end != std::string::npos, "xml: unterminated attribute");
      node.attrs[key] = unescape(t_.substr(pos_, end - pos_));
      pos_ = end + 1;
    }
    // Content: children and/or text until the closing tag.
    while (true) {
      const auto lt = t_.find('<', pos_);
      MSC_CHECK(lt != std::string::npos, "xml: unterminated element");
      node.text += unescape(t_.substr(pos_, lt - pos_));
      pos_ = lt;
      if (t_.compare(pos_, 2, "</") == 0) {
        pos_ += 2;
        const std::string closing = parse_name();
        MSC_CHECK(closing == node.tag, "xml: mismatched closing tag");
        skip_ws();
        MSC_CHECK(peek() == '>', "xml: malformed closing tag");
        ++pos_;
        return node;
      }
      node.children.push_back(parse_element());
    }
  }

  const std::string& t_;
  std::size_t pos_{0};
};

}  // namespace

Cube from_cube_xml(const std::string& xml) {
  const XmlNode root = XmlParser(xml).parse();
  MSC_CHECK(root.tag == "cube", "not a cube document");
  MSC_CHECK(root.attr("version") == "1", "unsupported cube version");

  Cube cube;
  for (const auto& m : root.child("metrics").children) {
    const int parent = m.attr_int("parent");
    const MetricId id = cube.metrics.add(
        m.attr("name"), m.attrs.count("desc") ? m.attr("desc") : "",
        MetricId{parent});
    MSC_CHECK(id.get() == m.attr_int("id"),
              "cube metrics must be stored in id order");
  }
  for (const auto& r : root.child("regions").children) {
    const RegionId id = cube.regions.intern(r.attr("name"));
    MSC_CHECK(id.get() == r.attr_int("id"),
              "cube regions must be stored in id order");
  }
  for (const auto& n : root.child("calltree").children) {
    const CallPathId id =
        cube.calls.get_or_add(CallPathId{n.attr_int("parent")},
                              RegionId{n.attr_int("region")});
    MSC_CHECK(id.get() == n.attr_int("id"),
              "cube call tree must be stored in id order");
  }
  for (const auto& s : root.child("system").children) {
    if (s.tag == "metahost") {
      cube.system.metahosts.push_back(
          tracing::MetahostDef{MetahostId{s.attr_int("id")},
                               s.attr("name")});
    } else if (s.tag == "location") {
      tracing::LocationDef loc;
      loc.process = s.attr_int("rank");
      loc.machine = MetahostId{s.attr_int("machine")};
      loc.node = NodeId{s.attr_int("node")};
      loc.thread = s.attr_int("thread");
      cube.system.locations.push_back(loc);
    } else if (s.tag == "comm") {
      tracing::CommDef c;
      c.id = CommId{s.attr_int("id")};
      c.name = s.attr("name");
      std::istringstream ms(s.attr("members"));
      Rank r;
      while (ms >> r) c.members.push_back(r);
      cube.system.comms.push_back(std::move(c));
    } else {
      throw Error("xml: unknown system element <" + s.tag + ">");
    }
  }
  // The cube's region table must mirror the defs' regions for rendering.
  cube.system.regions = cube.regions;
  for (const auto& row : root.child("severity").children) {
    const MetricId m{row.attr_int("metric")};
    for (const auto& v : row.children) {
      cube.add(m, CallPathId{v.attr_int("c")}, v.attr_int("r"),
               std::stod(v.text));
    }
  }
  return cube;
}

void save_cube(const std::string& path, const Cube& cube) {
  const std::string xml = to_cube_xml(cube);
  FileWriter out(path);
  out.write(xml.data(), xml.size());
  out.close();
}

Cube load_cube(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open cube file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return from_cube_xml(ss.str());
}

}  // namespace metascope::report
