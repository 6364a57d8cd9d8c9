#include "cli/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace hbft {
namespace cli {

namespace {

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendIndent(std::string* out, int indent) { out->append(indent * 2, ' '); }

}  // namespace

JsonValue& JsonValue::Set(const std::string& key, JsonValue value) {
  HBFT_CHECK(kind_ == Kind::kObject);
  members_.emplace_back(key, std::move(value));
  return *this;
}

JsonValue& JsonValue::Push(JsonValue value) {
  HBFT_CHECK(kind_ == Kind::kArray);
  elements_.push_back(std::move(value));
  return *this;
}

JsonValue& JsonValue::Extend(JsonValue other) {
  HBFT_CHECK(kind_ == Kind::kObject && other.kind_ == Kind::kObject);
  for (auto& member : other.members_) {
    members_.push_back(std::move(member));
  }
  return *this;
}

void JsonValue::DumpTo(std::string* out, int indent) const {
  switch (kind_) {
    case Kind::kNull:
      *out += "null";
      break;
    case Kind::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Kind::kInt:
      *out += std::to_string(int_);
      break;
    case Kind::kUint:
      *out += std::to_string(uint_);
      break;
    case Kind::kDouble: {
      if (!std::isfinite(double_)) {
        *out += "null";
        break;
      }
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.6g", double_);
      *out += buf;
      break;
    }
    case Kind::kString:
      AppendEscaped(out, string_);
      break;
    case Kind::kObject: {
      if (members_.empty()) {
        *out += "{}";
        break;
      }
      *out += "{\n";
      for (size_t i = 0; i < members_.size(); ++i) {
        AppendIndent(out, indent + 1);
        AppendEscaped(out, members_[i].first);
        *out += ": ";
        members_[i].second.DumpTo(out, indent + 1);
        if (i + 1 < members_.size()) {
          out->push_back(',');
        }
        out->push_back('\n');
      }
      AppendIndent(out, indent);
      out->push_back('}');
      break;
    }
    case Kind::kArray: {
      if (elements_.empty()) {
        *out += "[]";
        break;
      }
      *out += "[\n";
      for (size_t i = 0; i < elements_.size(); ++i) {
        AppendIndent(out, indent + 1);
        elements_[i].DumpTo(out, indent + 1);
        if (i + 1 < elements_.size()) {
          out->push_back(',');
        }
        out->push_back('\n');
      }
      AppendIndent(out, indent);
      out->push_back(']');
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, 0);
  out.push_back('\n');
  return out;
}

void JsonValue::CollectLeaves(const std::string& path,
                              std::vector<std::pair<std::string, std::string>>* out) const {
  auto child = [&path](const std::string& key) { return path.empty() ? key : path + "." + key; };
  if (kind_ == Kind::kObject && !members_.empty()) {
    for (const auto& [key, value] : members_) {
      value.CollectLeaves(child(key), out);
    }
  } else if (kind_ == Kind::kArray && !elements_.empty()) {
    for (size_t i = 0; i < elements_.size(); ++i) {
      elements_[i].CollectLeaves(child(std::to_string(i)), out);
    }
  } else {
    std::string value;
    DumpTo(&value, 0);
    out->emplace_back(path, std::move(value));
  }
}

std::string JsonValue::DumpText() const {
  std::vector<std::pair<std::string, std::string>> leaves;
  CollectLeaves("", &leaves);
  size_t width = 0;
  for (const auto& leaf : leaves) {
    width = std::max(width, leaf.first.size());
  }
  std::string out;
  for (const auto& [path, value] : leaves) {
    out += path;
    out.append(width - path.size(), ' ');
    out += " : " + value + "\n";
  }
  return out;
}

bool WriteJsonFile(const std::string& path, const JsonValue& value) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "hbft_cli: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::string text = value.Dump();
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  int close_rc = std::fclose(f);
  bool ok = written == text.size() && close_rc == 0;
  if (!ok) {
    std::fprintf(stderr, "hbft_cli: failed writing %s\n", path.c_str());
  }
  return ok;
}

}  // namespace cli
}  // namespace hbft
