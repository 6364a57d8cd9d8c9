// Fixture: a complete snapshot in a class that declares operators. The `=`
// in `operator=` and `operator==` comes before their parameter lists; both
// are functions, not a data member named `operator`, so the file is clean.
#include <cstdint>

namespace fixture {

class SnapshotWriter;
class SnapshotReader;

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;
  bool operator==(const Gauge& other) const = default;

  void CaptureState(SnapshotWriter& w) const { w.U32(level_); }
  bool RestoreState(SnapshotReader& r) { return r.U32(&level_); }

 private:
  uint32_t level_ = 0;
};

}  // namespace fixture
