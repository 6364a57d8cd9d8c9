// Calibrated virtual-time cost model.
//
// All timing in the simulation flows from these constants, which come from
// the paper's measured values on the HP 9000/720 prototype (section 4):
//   * 50 MIPS processor: "a typical instruction should execute in .02 usec";
//   * 15.12 us to simulate a privileged instruction ("approximately 8 usec
//     for hypervisor entry/exit and 7 usec for the actual work");
//   * 443.59 us average epoch-boundary processing under the original
//     protocol, of which the ack round trip is ~282 us (the revised protocol
//     of section 4.3, which drops the wait, implies a local boundary cost of
//     ~161 us from the Table 1 CPU rows);
//   * disk write 26 ms, 8K disk read 24.2 ms on bare hardware.
//
// The simulation does not charge the 443.59 us figure directly: it charges
// the local costs and then *actually performs* the message exchanges over the
// modelled link, so the ack wait emerges from the channel model — exactly the
// decomposition the paper's own analytic models use.
#ifndef HBFT_HYPERVISOR_COST_MODEL_HPP_
#define HBFT_HYPERVISOR_COST_MODEL_HPP_

#include "common/time.hpp"
#include "net/channel.hpp"

namespace hbft {

struct CostModel {
  // Bare processor.
  SimTime instruction_cost = SimTime::Nanos(20);

  // Hypervisor costs (paper section 4.1).
  SimTime hv_priv_sim_cost = SimTime::MicrosF(15.12);  // Per simulated instruction.
  SimTime hv_trap_reflect_cost = SimTime::MicrosF(10.0);  // Vectoring a trap to the guest.
  SimTime hv_tlb_fill_cost = SimTime::MicrosF(8.0);       // Hypervisor TLB-miss takeover.
  SimTime hv_interrupt_deliver_cost = SimTime::MicrosF(5.0);  // Per buffered interrupt.

  // Epoch-boundary local processing (excluding message sends and ack waits,
  // which are modelled explicitly through the channel). The backup's
  // boundary is cheaper: it only re-synchronises clocks and delivers — the
  // buffering/relay bookkeeping lives on the primary.
  SimTime epoch_boundary_fixed_cost = SimTime::MicrosF(90.0);
  SimTime backup_boundary_cost = SimTime::MicrosF(20.0);

  // Per-message CPU occupancy (controller set-up / completion interrupt on
  // the sending and receiving hosts). Wire time lives in LinkModel.
  // Calibrated so the original protocol's boundary (local work + Tme send +
  // ack round trip + end send) lands on the paper's measured 443.59 us.
  SimTime msg_send_cpu_cost = SimTime::MicrosF(25.0);
  SimTime msg_receive_cpu_cost = SimTime::MicrosF(35.0);
  SimTime ack_receive_cpu_cost = SimTime::MicrosF(10.0);  // Ack bookkeeping.

  // Devices (paper section 4.2; the NIC is this reproduction's extension).
  SimTime disk_write_latency = SimTime::Millis(26);
  SimTime disk_read_latency = SimTime::MicrosF(24200.0);
  SimTime console_tx_latency = SimTime::Micros(520);  // ~19200 baud UART char.
  SimTime nic_tx_latency = SimTime::Micros(120);      // One guest-side frame time.

  // Failure detection timeout after the channel drains.
  SimTime failure_detect_timeout = SimTime::Millis(5);

  // Interconnect between the hypervisors.
  LinkModel link = LinkModel::Ethernet10();

  // TOD register tick: 100 ns units.
  int64_t tod_tick_picos = 100000;

  int64_t TodFromTime(SimTime t) const { return t.picos() / tod_tick_picos; }
  SimTime TimeFromTod(int64_t tod) const { return SimTime::Picos(tod * tod_tick_picos); }

  static CostModel PaperCalibrated() { return CostModel{}; }
  static CostModel WithAtmLink() {
    CostModel model;
    model.link = LinkModel::Atm155();
    return model;
  }
};

}  // namespace hbft

#endif  // HBFT_HYPERVISOR_COST_MODEL_HPP_
