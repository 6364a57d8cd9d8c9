// Umbrella header: the public API of the hbft library.
//
// Most users need only the scenario layer:
//
//   #include "hbft.hpp"
//   auto bare = hbft::RunBare(workload);
//   auto ft   = hbft::Scenario::Replicated(workload)
//                   .Backups(2)
//                   .Epoch(8192)
//                   .FailAtTime(hbft::SimTime::Millis(40))
//                   .Run();
//
// The lower layers (machine, hypervisor, protocol engines, devices,
// channels) are public too and independently usable — see README.md for the
// architecture overview.
#ifndef HBFT_HBFT_HPP_
#define HBFT_HBFT_HPP_

#include "common/snapshot.hpp"
#include "core/failure_detector.hpp"
#include "core/protocol.hpp"
#include "core/replica.hpp"
#include "core/state_transfer.hpp"
#include "devices/console.hpp"
#include "devices/device_set.hpp"
#include "devices/disk.hpp"
#include "devices/io.hpp"
#include "devices/nic.hpp"
#include "devices/virtual_device.hpp"
#include "guest/image.hpp"
#include "guest/minios.hpp"
#include "guest/workloads.hpp"
#include "hypervisor/cost_model.hpp"
#include "hypervisor/hypervisor.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "isa/isa.hpp"
#include "machine/machine.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"
#include "perf/models.hpp"
#include "perf/report.hpp"
#include "sim/environment_observer.hpp"
#include "sim/scenario.hpp"
#include "sim/world.hpp"

#endif  // HBFT_HBFT_HPP_
