// The serve subsystem's session driver: a protected guest behind a real TCP
// listener.
//
// Three roles, each running one World through one serve loop; only their
// setup differs:
//   kSingle  — the World hosts the whole replica chain (as in the
//              simulation); only the client frontend is real TCP. The
//              --fail schedule can kill the in-process primary mid-session
//              to demonstrate failover under live traffic.
//   kPrimary — the World hosts wire position 0, the primary. This process
//              accepts the backup's replication connection on --repl-port,
//              holds the guest until it attaches, ships the protocol stream
//              over it, and serves clients on --port. If no backup arrives
//              within --backup-wait-ms it runs solo.
//   kBackup  — the World hosts wire position 1, the standing backup. This
//              process dials the primary's repl port and consumes the
//              protocol stream. A dead connection is the primary's death: it
//              takes the path a killed replica's survivor takes (failure
//              detector, then P6/P7), and the promoted backup takes over the
//              client port (SO_REUSEADDR rebind; clients reconnect and resend
//              unacknowledged requests).
//
// Request path and output commit: a client request frame becomes a NIC RX
// completion; the guest echoes the packet (after logging it to disk), and
// the echo's TX latch — which the revised protocol gates on every relayed
// message being acknowledged — is the instant the response is released to
// the client socket. A response a client holds therefore proves the backup
// can reproduce the state that generated it: kill -9 the primary and every
// acknowledged write survives the promotion. This is why serve refuses the
// original protocol variant: its boundary-ack rule makes the guarantee
// epoch-granular.
#ifndef HBFT_SERVE_SERVER_HPP_
#define HBFT_SERVE_SERVER_HPP_

#include <cstdint>
#include <set>
#include <string>
#include <utility>

#include "devices/nic.hpp"
#include "serve/frontend.hpp"
#include "sim/scenario.hpp"
#include "sim/world.hpp"

namespace hbft {
namespace serve {

enum class ServeRole { kSingle, kPrimary, kBackup };

// The guest halts after `iterations` packets; a serving session ends on a
// signal or budget instead, so the count is effectively infinite.
constexpr uint32_t kServeForever = 1000000000u;

struct ServeConfig {
  ServeRole role = ServeRole::kSingle;
  uint16_t port = 7070;       // Client listener.
  uint16_t repl_port = 7071;  // Replication transport (multi-process roles).
  std::string peer_host = "127.0.0.1";
  // The served chain: kSingle builds all of it, each wire role one position
  // of its two-replica form (its failure schedule is kSingle's only). Output
  // commit is the serving contract, so the variant must be the revised one.
  Scenario scenario = Scenario::Replicated(WorkloadSpec::NetEcho(kServeForever))
                          .Variant(ProtocolVariant::kRevised)
                          .MaxTime(SimTime::Seconds(100000));
  std::string failure_description = "none";
  // Session bounds; 0 = unbounded (run until a signal).
  uint64_t duration_ms = 0;
  uint64_t max_requests = 0;
  // kPrimary: how long to hold the guest for a backup before going solo.
  // kBackup: how long to keep redialing the primary before giving up.
  uint64_t backup_wait_ms = 3000;
};

struct ServeReport {
  bool ok = false;
  std::string error;
  std::string role;
  std::string stop_reason;  // "signal", "duration", "max-requests", "guest-halt", "service-lost"
  double runtime_s = 0.0;

  // Client-side traffic.
  Frontend::Stats frontend;

  // Replication.
  bool solo = false;  // The serving replica ended without a live backup.
  uint64_t repl_bytes_in = 0;
  uint64_t repl_bytes_out = 0;

  // The session's World as `run` reports one (World::Finish, then
  // Scenario::CollectResult): crashes, promotions, per-replica and
  // per-channel counters. Empty if the session never started serving.
  ScenarioResult result;
};

// Runs one serve session to completion (signal, duration, request budget, or
// guest halt). Returns the process exit code; `report` is always filled.
int RunServe(const ServeConfig& config, ServeReport* report);

// The distinct (client_id, seq) responses a session has released.
using ReleasedResponses = std::set<std::pair<uint64_t, uint64_t>>;

// Releases committed responses: every echo latched by `nic` goes to its
// client through `frontend`, and its (client_id, seq) into `released`. The
// NIC TX latch fires only once the revised protocol's output-commit wait is
// satisfied, so by construction the backup has acknowledged everything the
// response depends on. One echo can latch twice: if the active replica dies
// after latching it but before its completion reaches the backup, P7
// synthesises an uncertain completion and the promoted guest's driver
// transmits it again. The client already holds that response, so the
// request budget (--max-requests) counts `released`, not latches.
void AttachLatchRelease(Nic* nic, Frontend* frontend, ReleasedResponses* released);

}  // namespace serve
}  // namespace hbft

#endif  // HBFT_SERVE_SERVER_HPP_
