// Minimal JSON value + serialiser for the CLI's reports and bench artifacts.
// Only what they need: objects with insertion-ordered keys, arrays, strings,
// numbers, and booleans.
#ifndef HBFT_CLI_JSON_HPP_
#define HBFT_CLI_JSON_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hbft {
namespace cli {

class JsonValue {
 public:
  JsonValue() : kind_(Kind::kNull) {}
  JsonValue(bool b) : kind_(Kind::kBool), bool_(b) {}
  JsonValue(int64_t n) : kind_(Kind::kInt), int_(n) {}
  JsonValue(uint64_t n) : kind_(Kind::kUint), uint_(n) {}
  JsonValue(int n) : kind_(Kind::kInt), int_(n) {}
  JsonValue(double d) : kind_(Kind::kDouble), double_(d) {}
  JsonValue(const char* s) : kind_(Kind::kString), string_(s) {}
  JsonValue(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}

  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }

  JsonValue& Set(const std::string& key, JsonValue value);
  JsonValue& Push(JsonValue value);
  // Appends every member of the object `other`, in order.
  JsonValue& Extend(JsonValue other);

  // Pretty-prints with two-space indentation and a trailing newline.
  std::string Dump() const;
  // The same document flattened: one `path : value` line per leaf, the
  // paths padded to one width. A path joins object keys and array indices
  // with '.' (`nodes.1.epochs`); the root's own path is empty. Each value
  // prints as Dump prints it, so strings stay quoted and escaped, and empty
  // objects and arrays are leaves printed `{}` and `[]`.
  std::string DumpText() const;

 private:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kObject, kArray };

  void DumpTo(std::string* out, int indent) const;
  // Appends (path, value) for every leaf at or below this value.
  void CollectLeaves(const std::string& path,
                     std::vector<std::pair<std::string, std::string>>* out) const;

  Kind kind_;
  bool bool_ = false;
  int64_t int_ = 0;
  uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::vector<JsonValue> elements_;
};

// Writes `value` to `path`; returns false (with a message) on I/O failure.
bool WriteJsonFile(const std::string& path, const JsonValue& value);

}  // namespace cli
}  // namespace hbft

#endif  // HBFT_CLI_JSON_HPP_
