#include "serve/server.hpp"

#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <optional>
#include <poll.h>

#include "devices/device_set.hpp"
#include "serve/frontend.hpp"
#include "serve/sockets.hpp"
#include "serve/wire.hpp"
#include "sim/realtime_pump.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace serve {

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnStopSignal(int) { g_stop = 1; }

void InstallSignalHandlers() {
  std::signal(SIGINT, OnStopSignal);
  std::signal(SIGTERM, OnStopSignal);
  // A client or peer vanishing mid-write must surface as a write error on
  // that socket, not kill the server.
  std::signal(SIGPIPE, SIG_IGN);
}

void Note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::fputs("hbft_serve: ", stderr);
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  std::fflush(stderr);
  va_end(args);
}

// Drains the replication socket: complete frames enter the world at `now`;
// EOF, reset or corruption is the peer's death.
void PumpRepl(FrameStream* repl, World* world, SimTime now) {
  bool alive = repl->ReadAvailable();
  while (std::optional<std::vector<uint8_t>> frame = repl->NextFrame()) {
    world->InjectWireFrame(*frame, now);
  }
  if (alive && !repl->corrupt()) {
    return;
  }
  if (repl->truncated_bytes() > 0) {
    // The peer died mid-write: the partial frame is held by the dissector
    // and never delivered — Channel::Break truncation semantics at the
    // socket boundary.
    Note("peer died mid-frame (%zu truncated bytes discarded)", repl->truncated_bytes());
  }
  repl->Close();
  world->PeerLost(now);
  Note("replication peer lost at t=%.3f ms", now.seconds() * 1e3);
}

// Ships the wire position's outbound channel over the repl stream. The sink
// only queues: ServeLoop's end-of-iteration Flush sends the iteration's
// frames in one write(2), since a running guest emits one every epoch. A
// dead peer is not reported here; PumpRepl sees its EOF or reset on the
// next read.
void BindReplSink(World* world, FrameStream* stream) {
  world->BindWireSink([stream](const std::vector<uint8_t>& bytes) {
    if (!stream->open()) {
      return false;
    }
    stream->QueueFrame(bytes);
    return true;
  });
}

struct StopCheck {
  const ServeConfig* config;
  const ReleasedResponses* released;
  std::string reason;

  // Returns true when the session should end, recording why.
  bool Due(SimTime now) {
    if (g_stop != 0) {
      reason = "signal";
    } else if (config->duration_ms > 0 && now >= SimTime::Millis(config->duration_ms)) {
      reason = "duration";
    } else if (config->max_requests > 0 && released->size() >= config->max_requests) {
      reason = "max-requests";
    } else {
      return false;
    }
    return true;
  }
};

// Whether any replica of the world is executing guest code: the world half
// of the wait rule's input.
bool AnyRunnable(World& world) {
  for (size_t i = 0; i < world.replica_count(); ++i) {
    if (world.replica(i)->runnable()) {
      return true;
    }
  }
  return false;
}

// The first replica that took over, if any.
const ReplicaNode* Promoted(World& world) {
  for (size_t i = 0; i < world.replica_count(); ++i) {
    if (world.replica(i)->promoted()) {
      return world.replica(i);
    }
  }
  return nullptr;
}

// --- The serve loop, one for every role --------------------------------------

// Drives one World plus the client frontend and, for a wire position, the
// replication stream. The frontend enters listening, except a wire backup's,
// which opens at promotion.
void ServeLoop(const ServeConfig& config, World* world, Frontend* frontend, FrameStream* repl,
               RealtimePump* pump, ServeReport* report) {
  ReleasedResponses released;
  AttachLatchRelease(world->devices().nic(), frontend, &released);
  StopCheck stop{&config, &released, ""};
  bool promotion_noted = false;

  while (true) {
    std::vector<pollfd> fds;
    frontend->CollectFds(&fds);
    const bool repl_open = repl != nullptr && repl->open();
    if (repl_open) {
      short events = POLLIN;
      if (repl->HasPendingWrites()) {
        events |= POLLOUT;
      }
      fds.push_back(pollfd{repl->fd(), events, 0});
    }
    pump->Poll(fds.data(), fds.size(),
               RealtimePump::WaitBound(pump->Now(), world->NextEventTime(), AnyRunnable(*world)));
    const SimTime now = pump->Now();

    if (repl_open) {
      PumpRepl(repl, world, now);
    }
    frontend->Pump([world, now](const ClientFrame& frame) {
      NicRequest req{frame.client_id, frame.seq, frame.payload};
      world->InjectPacket(EncodeNicRequest(req), now);
    });
    const bool more = world->RunLoop(pump->Now());

    // A backup that promoted takes over the client port. Retried every loop
    // until the bind lands (the dead primary's socket may take an instant to
    // evaporate even with SO_REUSEADDR).
    if (const ReplicaNode* node = Promoted(*world)) {
      if (!promotion_noted) {
        promotion_noted = true;
        Note("promoted at t=%.3f ms", node->promotion_time().seconds() * 1e3);
      }
      if (!frontend->listening()) {
        std::string error;
        if (frontend->OpenListener(&error)) {
          Note("took over client port 127.0.0.1:%u", frontend->port());
        }
      }
    }

    frontend->FlushAll();
    if (repl != nullptr && repl->open()) {
      repl->Flush();
    }

    if (!more && world->finished()) {
      stop.reason = world->service_lost() ? "service-lost" : "guest-halt";
      break;
    }
    if (stop.Due(now)) {
      break;
    }
  }
  frontend->FlushAll();

  report->stop_reason = stop.reason;
  report->runtime_s = pump->Now().seconds();
  report->frontend = frontend->stats();
  if (repl != nullptr) {
    report->repl_bytes_in = repl->bytes_in();
    report->repl_bytes_out = repl->bytes_out();
  }
  report->solo = world->replica(world->active_index())->solo();
  world->Finish(&report->result);
  config.scenario.CollectResult(*world, &report->result);
  report->ok = stop.reason != "service-lost";
}

// --- Per-role setup ------------------------------------------------------------

int RunSingle(const ServeConfig& config, ServeReport* report) {
  std::unique_ptr<World> world = config.scenario.BuildWorld();
  Frontend frontend(config.port);
  std::string error;
  if (!frontend.OpenListener(&error)) {
    report->error = "client listener: " + error;
    return 1;
  }
  const int backups = config.scenario.world_config().backups;
  Note("listening on 127.0.0.1:%u (single-process chain, %d backup%s)", config.port, backups,
       backups == 1 ? "" : "s");
  RealtimePump pump;
  ServeLoop(config, world.get(), &frontend, nullptr, &pump, report);
  return report->ok ? 0 : 1;
}

int RunPrimary(const ServeConfig& config, ServeReport* report) {
  std::string error;
  int repl_listen = TcpListen(config.repl_port, &error);
  if (repl_listen < 0) {
    report->error = "repl listener: " + error;
    return 1;
  }

  RealtimePump wait_clock;

  // Hold the guest until the backup is attached (or the wait expires): every
  // protocol message must ship through the wire from the first epoch, or the
  // two replicas would silently diverge.
  Note("waiting up to %llu ms for a backup on 127.0.0.1:%u",
       static_cast<unsigned long long>(config.backup_wait_ms), config.repl_port);
  std::unique_ptr<FrameStream> repl;
  const SimTime wait_deadline = SimTime::Millis(config.backup_wait_ms);
  while (g_stop == 0 && wait_clock.Now() < wait_deadline) {
    int fd = TcpAccept(repl_listen);
    if (fd >= 0) {
      repl = std::make_unique<FrameStream>(fd, kMaxReplFrameBytes);
      break;
    }
    pollfd p{repl_listen, POLLIN, 0};
    wait_clock.Poll(&p, 1, RealtimePump::kIdleWait);
  }
  CloseFd(repl_listen);  // One backup per session; rejoin-over-wire is future work.
  if (g_stop != 0) {
    report->stop_reason = "signal";
    report->runtime_s = wait_clock.Now().seconds();
    report->ok = true;
    return 0;
  }

  // Built once the wait is over: with no backup, the primary is a chain of
  // one and runs unreplicated from the start.
  std::unique_ptr<World> world = config.scenario.BuildWirePosition(0, repl != nullptr);
  if (repl != nullptr) {
    BindReplSink(world.get(), repl.get());
    Note("backup connected; replication active");
  } else {
    Note("no backup within %llu ms; running solo",
         static_cast<unsigned long long>(config.backup_wait_ms));
  }

  // The held guest's time 0 is the instant serving begins, not launch. A
  // clock anchored at launch would have the guest run the whole wait in one
  // burst on the first iteration, leaving the backup that far behind.
  RealtimePump pump;

  Frontend frontend(config.port);
  if (!frontend.OpenListener(&error)) {
    report->error = "client listener: " + error;
    return 1;
  }
  Note("listening on 127.0.0.1:%u (primary)", config.port);
  ServeLoop(config, world.get(), &frontend, repl.get(), &pump, report);
  return report->ok ? 0 : 1;
}

int RunBackup(const ServeConfig& config, ServeReport* report) {
  RealtimePump pump;
  std::string error;
  int fd = -1;
  const SimTime dial_deadline = SimTime::Millis(config.backup_wait_ms);
  while (g_stop == 0) {
    fd = TcpConnect(config.peer_host, config.repl_port, 250, &error);
    if (fd >= 0) {
      break;
    }
    if (pump.Now() >= dial_deadline) {
      report->error = "could not reach primary at " + config.peer_host + ":" +
                      std::to_string(config.repl_port) + ": " + error;
      return 1;
    }
    pump.Poll(nullptr, 0, SimTime::Millis(100));
  }
  if (g_stop != 0) {
    report->stop_reason = "signal";
    report->ok = true;
    return 0;
  }

  std::unique_ptr<World> world = config.scenario.BuildWirePosition(1);
  auto repl = std::make_unique<FrameStream>(fd, kMaxReplFrameBytes);
  BindReplSink(world.get(), repl.get());
  Note("connected to primary at %s:%u; standing by", config.peer_host.c_str(),
       config.repl_port);

  // The client listener stays closed until promotion: the primary serves.
  Frontend frontend(config.port);
  ServeLoop(config, world.get(), &frontend, repl.get(), &pump, report);
  return report->ok ? 0 : 1;
}

}  // namespace

void AttachLatchRelease(Nic* nic, Frontend* frontend, ReleasedResponses* released) {
  nic->set_on_latch([frontend, released](const EnvTraceEntry& entry) {
    std::optional<NicRequest> req = DecodeNicPacket(entry.bytes);
    if (!req.has_value()) {
      return;  // Not client traffic (nothing else transmits today).
    }
    frontend->SendResponse(req->client_id, req->seq, req->payload);
    released->emplace(req->client_id, req->seq);
  });
}

int RunServe(const ServeConfig& config, ServeReport* report) {
  InstallSignalHandlers();
  switch (config.role) {
    case ServeRole::kSingle:
      report->role = "single";
      return RunSingle(config, report);
    case ServeRole::kPrimary:
      report->role = "primary";
      return RunPrimary(config, report);
    case ServeRole::kBackup:
      report->role = "backup";
      return RunBackup(config, report);
  }
  report->error = "unknown role";
  return 2;
}

}  // namespace serve
}  // namespace hbft
