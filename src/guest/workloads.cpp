#include "guest/workloads.hpp"

#include "common/check.hpp"
#include "guest/minios.hpp"

namespace hbft {

const char* const kWorkloadsSource = R"ASM(
; ============================ user programs =================================
.org 0x200000
user_entry:
    li sp, 0x3F0000
    lw t1, 0x4004(zero)      ; workload id from the parameter block
    li t2, 1
    beq t1, t2, wl_cpu
    li t2, 2
    beq t1, t2, wl_disk_read
    li t2, 3
    beq t1, t2, wl_disk_write
    li t2, 4
    beq t1, t2, wl_hello
    li t2, 5
    beq t1, t2, wl_txnlog
    li t2, 6
    beq t1, t2, wl_echo
    li t2, 7
    beq t1, t2, wl_heap
    li t2, 8
    beq t1, t2, wl_time
    li t2, 9
    beq t1, t2, wl_netecho
    li a0, 99                ; unknown workload
    li a1, 0
    j u_exit

; ---- user library ----------------------------------------------------------
u_putc:                      ; a0 = character
    li t0, 2
    syscall 0
    ret
u_puts:                      ; a0 = NUL-terminated string
    addi sp, sp, -8
    sw ra, 0(sp)
    sw s0, 4(sp)
    mv s0, a0
ups_loop:
    lbu a0, 0(s0)
    beqz a0, ups_done
    li t0, 2
    syscall 0
    addi s0, s0, 1
    j ups_loop
ups_done:
    lw ra, 0(sp)
    lw s0, 4(sp)
    addi sp, sp, 8
    ret
u_exit:                      ; a0 = code, a1 = checksum
    li t0, 1
    syscall 0
    j u_exit                 ; unreachable

; ---- CPU-intensive workload (Dhrystone stand-in) ----------------------------
; Integer mix + 16-word buffer copy + leaf call per iteration (~150 instr).
wl_cpu:
    lw s0, 0x4008(zero)      ; iterations
    li s1, 0x12345678        ; running checksum
    li s2, 0                 ; i
    li s3, 0x300000          ; buf1
    li s4, 0x300100          ; buf2
wc_iter:
    add t1, s2, s1
    mul t2, t1, t1
    xor s1, s1, t2
    srli t3, s1, 13
    xor s1, s1, t3
    slli t3, s1, 7
    add s1, s1, t3
    andi t4, s2, 1
    beqz t4, wc_even
    addi s1, s1, 17
    j wc_join
wc_even:
    xori s1, s1, 0x5A5A
wc_join:
    li t5, 16
    mv t6, s3
    mv t7, s4
wc_copy:
    lw t1, 0(t6)
    add t1, t1, s2
    sw t1, 0(t7)
    xor s1, s1, t1
    addi t6, t6, 4
    addi t7, t7, 4
    addi t5, t5, -1
    bnez t5, wc_copy
    mv a0, s1
    call cpu_leaf
    mv s1, a0
    addi s2, s2, 1
    bne s2, s0, wc_iter
    li a0, 0
    mv a1, s1
    j u_exit
cpu_leaf:
    slli t1, a0, 3
    xor a0, a0, t1
    srli t1, a0, 5
    add a0, a0, t1
    ret

; ---- disk read benchmark ----------------------------------------------------
; Per op: compute burst (block selection work), LCG block pick, read, fold
; the first word of the block into the checksum.
wl_disk_read:
    lw s0, 0x4008(zero)      ; ops
    lw s1, 0x400C(zero)      ; burst iterations
    lw s2, 0x4018(zero)      ; num blocks
    lw s3, 0x401C(zero)      ; LCG state
    li s4, 0                 ; i
    li s5, 0                 ; checksum
wdr_op:
    mv t1, s1
    beqz t1, wdr_pick
wdr_burst:
    add s5, s5, t1
    xor s5, s5, s4
    addi t1, t1, -1
    bnez t1, wdr_burst
wdr_pick:
    li t2, 1664525
    mul s3, s3, t2
    li t2, 1013904223
    add s3, s3, t2
    srli t3, s3, 8
    rem t3, t3, s2
    mv a0, t3
    li a1, 0x310000
    li t0, 5
    syscall 0
    li t4, 0x310000
    lw t5, 0(t4)
    xor s5, s5, t5
    addi s4, s4, 1
    bne s4, s0, wdr_op
    li a0, 0
    mv a1, s5
    j u_exit

; ---- disk write benchmark ---------------------------------------------------
wl_disk_write:
    lw s0, 0x4008(zero)
    lw s1, 0x400C(zero)
    lw s2, 0x4018(zero)
    lw s3, 0x401C(zero)
    li s4, 0
    li s5, 0
    ; fill the 8K buffer once
    li t1, 0x310000
    li t2, 2048
    li t3, 0xAB5D0123
wdw_fill:
    sw t3, 0(t1)
    addi t3, t3, 0x11
    addi t1, t1, 4
    addi t2, t2, -1
    bnez t2, wdw_fill
wdw_op:
    mv t1, s1
    beqz t1, wdw_pick
wdw_burst:
    add s5, s5, t1
    xor s5, s5, s4
    addi t1, t1, -1
    bnez t1, wdw_burst
wdw_pick:
    li t2, 1664525
    mul s3, s3, t2
    li t2, 1013904223
    add s3, s3, t2
    srli t3, s3, 8
    rem t3, t3, s2
    li t4, 0x310000          ; stamp the record head
    sw s4, 0(t4)
    sw t3, 4(t4)
    mv a0, t3
    li a1, 0x310000
    li t0, 6
    syscall 0
    slli t5, t3, 16
    xor s5, s5, t5
    xor s5, s5, s4
    addi s4, s4, 1
    bne s4, s0, wdw_op
    li a0, 0
    mv a1, s5
    j u_exit

; ---- quickstart -------------------------------------------------------------
wl_hello:
    la a0, hello_str
    call u_puts
    li t4, 0x310000
    li t5, 0xC0DE
    sw t5, 0(t4)
    li a0, 1                 ; write marker to block 1
    li a1, 0x310000
    li t0, 6
    syscall 0
    li t4, 0x310000
    sw zero, 0(t4)
    li a0, 1                 ; read it back
    li a1, 0x310000
    li t0, 5
    syscall 0
    li t4, 0x310000
    lw t6, 0(t4)
    li t5, 0xC0DE
    bne t6, t5, wh_fail
    la a0, ok_str
    call u_puts
    li a0, 0
    mv a1, t6
    j u_exit
wh_fail:
    la a0, fail_str
    call u_puts
    li a0, 1
    li a1, 0
    j u_exit

; ---- transaction log --------------------------------------------------------
; Record i -> block (i mod nblocks): [seq, seq^0x5EC0, payload...]; one
; progress digit per record. Failover tests verify every record reached disk
; (duplicates tolerated).
wl_txnlog:
    lw s0, 0x4008(zero)
    lw s2, 0x4018(zero)
    li s4, 0
wtx_op:
    li t4, 0x310000
    sw s4, 0(t4)
    li t5, 0x5EC0
    xor t5, t5, s4
    sw t5, 4(t4)
    rem t3, s4, s2
    mv a0, t3
    li a1, 0x310000
    li t0, 6
    syscall 0
    li t2, 10
    rem t1, s4, t2
    addi a0, t1, 48          ; '0' + i%10
    call u_putc
    addi s4, s4, 1
    bne s4, s0, wtx_op
    li a0, 10                ; newline
    call u_putc
    li a0, 0
    mv a1, s4
    j u_exit

; ---- console echo -----------------------------------------------------------
wl_echo:
    li s1, 0
we_loop:
    li t0, 7                 ; getc
    syscall 0
    mv s0, a0
    li t1, 113               ; 'q' quits
    beq s0, t1, we_done
    mv a0, s0
    call u_putc
    addi s1, s1, 1
    j we_loop
we_done:
    li a0, 0
    mv a1, s1
    j u_exit

; ---- demand-zero heap -------------------------------------------------------
wl_heap:
    li s0, 0x380000
    lw s1, 0x4008(zero)      ; pages to touch (capped by region size)
    li t1, 64
    bltu s1, t1, wh_go
    li s1, 64
wh_go:
    li s2, 0
whp_loop:
    sw s1, 0(s0)             ; faults: kernel demand-allocates and zeroes
    lw t1, 0(s0)             ; reads back the stored counter
    add s2, s2, t1
    lw t2, 2048(s0)          ; must read 0 (freshly zeroed page)
    add s2, s2, t2
    li t2, 4096
    add s0, s0, t2
    addi s1, s1, -1
    bnez s1, whp_loop
    li a0, 0
    mv a1, s2
    j u_exit

; ---- time-of-day probe ------------------------------------------------------
wl_time:
    lw s0, 0x4008(zero)
    li s2, 0                 ; last observed time
wtm_loop:
    li t0, 4                 ; gettime
    syscall 0
    blt a0, s2, wtm_fail      ; must be monotone
    mv s2, a0
    addi s0, s0, -1
    bnez s0, wtm_loop
    li a0, 0
    mv a1, s2
    j u_exit
wtm_fail:
    li a0, 7
    mv a1, s2
    j u_exit

; ---- net echo ---------------------------------------------------------------
; The three-device workload: receive `iterations` packets over the NIC and,
; per packet, fold its bytes into the checksum, log it to disk (block i mod
; nblocks), print a progress digit on the console, and transmit the packet
; straight back. Requires the NIC device and the net-enabled kernel image.
wl_netecho:
    li t0, 8                 ; net_init: wire MMIO, program RX, enable
    syscall 0
    lw s0, 0x4008(zero)      ; packets to echo
    lw s5, 0x4018(zero)      ; num blocks for the packet log
    li s1, 0                 ; checksum
    li s2, 0                 ; i
    beqz s0, wne_done
wne_loop:
    li a0, 0x310000          ; receive into the user I/O buffer
    li t0, 9
    syscall 0
    mv s3, a0                ; received length
    li t1, 0x310000
    mv t2, s3
    li t3, 0
wne_sum:
    beqz t2, wne_log
    lbu t4, 0(t1)
    add t3, t3, t4
    addi t1, t1, 1
    addi t2, t2, -1
    j wne_sum
wne_log:
    add s1, s1, t3
    add s1, s1, s3
    rem t4, s2, s5           ; log the packet: block = i mod nblocks
    mv a0, t4
    li a1, 0x310000
    li t0, 6                 ; disk write
    syscall 0
    li t2, 10                ; progress digit on the console
    rem t1, s2, t2
    addi a0, t1, 48
    call u_putc
    li a0, 0x310000
    mv a1, s3
    li t0, 10                ; net_send: echo the packet back
    syscall 0
    addi s2, s2, 1
    bne s2, s0, wne_loop
wne_done:
    li a0, 0
    mv a1, s1
    j u_exit

; ---- strings ----------------------------------------------------------------
.align 4
hello_str:
    .asciz "hello from ft-vm\n"
ok_str:
    .asciz "disk ok\n"
fail_str:
    .asciz "disk MISMATCH\n"
)ASM";

WorkloadSpec WorkloadSpec::PaperCpu() {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kCpu;
  // The paper executes 4.2e8 instructions (1M Dhrystone iterations, 8.8 s at
  // 50 MIPS). One wl_cpu iteration is ~160 instructions; 52,500 iterations
  // gives ~8.4e6 instructions = a 1/50 scale run.
  spec.iterations = 52500;
  // The tick handler executes ~10 intrinsic privileged instructions; 8 more
  // give ~18 per 10 ms tick, which reproduces the paper's n_sim*h_sim = 0.18
  // of bare runtime at the hypervised tick rate (see EXPERIMENTS.md).
  spec.tick_loops = 8;
  return spec;
}

WorkloadSpec WorkloadSpec::PaperDiskRead(uint32_t ops) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kDiskRead;
  spec.iterations = ops;
  // cpu(EL) decomposition from the paper's NP_R model: ~0.37 ms of ordinary
  // block-selection work (18,500 instructions) plus ~1000 hypervisor-
  // simulated instructions per operation in the driver path.
  spec.compute_burst = 4625;  // x4 instructions per burst iteration.
  spec.driver_loops = 985;
  spec.tick_loops = 8;
  spec.num_blocks = 64;
  return spec;
}

WorkloadSpec WorkloadSpec::PaperDiskWrite(uint32_t ops) {
  WorkloadSpec spec = PaperDiskRead(ops);
  spec.kind = WorkloadKind::kDiskWrite;
  return spec;
}

WorkloadSpec WorkloadSpec::NetEcho(uint32_t packets) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kNetEcho;
  spec.iterations = packets;
  spec.num_blocks = 16;  // Packet-log block range.
  return spec;
}

void PatchWorkloadParams(PhysicalMemory* memory, const WorkloadSpec& spec) {
  HBFT_CHECK(memory != nullptr);
  memory->Write32(kParamBlockBase + kParamMagic, kParamMagicValue);
  memory->Write32(kParamBlockBase + kParamWorkload, static_cast<uint32_t>(spec.kind));
  memory->Write32(kParamBlockBase + kParamIterations, spec.iterations);
  memory->Write32(kParamBlockBase + kParamComputeBurst, spec.compute_burst);
  memory->Write32(kParamBlockBase + kParamDriverLoops, spec.driver_loops);
  memory->Write32(kParamBlockBase + kParamTickLoops, spec.tick_loops);
  memory->Write32(kParamBlockBase + kParamNumBlocks, spec.num_blocks);
  memory->Write32(kParamBlockBase + kParamSeed, spec.seed);
  memory->Write32(kParamBlockBase + kParamTickPeriod, spec.tick_period);
  memory->Write32(kParamBlockBase + kParamVerbosity, spec.verbosity);
}

bool ChecksumMatchesBare(WorkloadKind kind) { return kind != WorkloadKind::kTime; }

}  // namespace hbft
