# Smoke test for the hbft_cli scenario driver, run via `cmake -P`.
# Checks that `run`, `drill`, and `bench --quick` exit 0 and that their
# reports contain the expected fields / artifacts.
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_cli out_var)
  execute_process(COMMAND ${HBFT_CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE output
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hbft_cli ${ARGN} exited ${rc}:\n${output}")
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

function(expect_field output field)
  if(NOT output MATCHES "${field}")
    message(FATAL_ERROR "expected field '${field}' missing from report:\n${output}")
  endif()
endfunction()

# --- run: bare vs replicated comparison report ------------------------------
run_cli(run_out run --workload=txnlog --iterations=6 --epoch-length=4096 --variant=new)
expect_field("${run_out}" "workload")
expect_field("${run_out}" "completed")
expect_field("${run_out}" "normalized_performance")
expect_field("${run_out}" "guest_checksum")

# --- run --mode=bare: no replication ----------------------------------------
run_cli(bare_out run --workload=cpu --iterations=2000 --mode=bare)
expect_field("${bare_out}" "completed[ =:]+yes")

# --- run --fail: failure injection through the run subcommand ---------------
run_cli(fail_out run --workload=txnlog --iterations=6 --fail=phase=after-send-tme,epoch=2)
expect_field("${fail_out}" "promoted[ =:]+yes")

# --- drill: primary-kill failover with promotion-latency report -------------
run_cli(drill_out drill --variant=new)
expect_field("${drill_out}" "promoted[ =:]+yes")
expect_field("${drill_out}" "promotion_latency")
expect_field("${drill_out}" "crash_time")
expect_field("${drill_out}" "detection")
run_cli(drill_old_out drill --variant=old --epoch-length=2048)
expect_field("${drill_old_out}" "promoted[ =:]+yes")

# --- drill --repair: kill -> resync (live state transfer) -> kill again -----
run_cli(repair_out drill --repair)
expect_field("${repair_out}" "takeovers[ =:]+2")
expect_field("${repair_out}" "resync_completed[ =:]+yes")
expect_field("${repair_out}" "resync_latency_ms")
expect_field("${repair_out}" "resync_bytes")
expect_field("${repair_out}" "verdict[ =:]+PASS")

# --- run --json: machine-readable report with a fail->rejoin schedule --------
run_cli(json_out run --workload=txnlog --iterations=12 --json
        --fail=phase=after-send-tme,epoch=2 --fail=rejoin-after-ms=10)
expect_field("${json_out}" "\"normalized_performance\"")
expect_field("${json_out}" "\"env_consistency\": true")
expect_field("${json_out}" "\"resyncs\"")
expect_field("${json_out}" "\"completed\": true")

# --- drill --backups=2: cascading failover through a backup chain -----------
run_cli(cascade_out drill --backups=2 --fail=time-ms=6
        --fail=phase=after-io-issue,crash-io=not-performed)
expect_field("${cascade_out}" "takeovers[ =:]+2")
expect_field("${cascade_out}" "promotion_latency_ms_stage2")
expect_field("${cascade_out}" "verdict[ =:]+PASS")
run_cli(cascade_default_out drill --backups=2 --variant=new)
expect_field("${cascade_default_out}" "takeovers[ =:]+2")
expect_field("${cascade_default_out}" "verdict[ =:]+PASS")

# --- run --backups=2: chain without failures, N'/N + consistency ------------
run_cli(chain_run_out run --workload=txnlog --iterations=6 --backups=2)
expect_field("${chain_run_out}" "replicas[ =:]+3")
expect_field("${chain_run_out}" "disk_consistency[ =:]+ok")

# --- net-echo: NIC scenario through the run subcommand -----------------------
run_cli(net_out run --workload=net-echo --iterations=3)
expect_field("${net_out}" "workload[ =:]+net-echo")
expect_field("${net_out}" "completed[ =:]+yes")
expect_field("${net_out}" "env_consistency[ =:]+ok")

# --- net-echo failover: NIC covered by P6/P7 ---------------------------------
run_cli(net_fail_out run --workload=net-echo --iterations=3
        --fail=phase=after-io-issue,crash-io=not-performed)
expect_field("${net_fail_out}" "promoted[ =:]+yes")
expect_field("${net_fail_out}" "env_consistency[ =:]+ok")

# --- device fault-plan knobs: retry-after-uncertain on both legacy devices ---
run_cli(faults_out run --workload=txnlog --iterations=6 --disk-uncertain=0.3
        --console-uncertain=0.3 --uncertain-performed=0.5 --mode=replicated)
expect_field("${faults_out}" "completed[ =:]+yes")

# --- net-echo drill: promotion report over the three-device workload ---------
run_cli(net_drill_out drill --workload=net-echo)
expect_field("${net_drill_out}" "promoted[ =:]+yes")
expect_field("${net_drill_out}" "verdict[ =:]+PASS")

# --- help + enum discoverability --------------------------------------------
run_cli(help_out help)
expect_field("${help_out}" "usage: hbft_cli")
run_cli(workloads_out --list-workloads)
expect_field("${workloads_out}" "txnlog")
expect_field("${workloads_out}" "diskread")
run_cli(phases_out help --list-phases)
expect_field("${phases_out}" "after-send-tme")
expect_field("${phases_out}" "before-io-issue")

# --- fleet: chains across hosts, host failure, failover + repair ------------
run_cli(fleet_out fleet --chains=4 --hosts=4 --requests=3 --fail=host-0,time-ms=120)
expect_field("${fleet_out}" "chains completed[ =:]+4/4")
expect_field("${fleet_out}" "chains lost[ =:]+0")
expect_field("${fleet_out}" "env consistent[ =:]+yes")
expect_field("${fleet_out}" "healthy[ =:]+yes")
run_cli(fleet_json_out fleet --chains=2 --hosts=2 --requests=2 --no-verify --json)
expect_field("${fleet_json_out}" "\"availability\"")
expect_field("${fleet_json_out}" "\"fingerprint\"")
expect_field("${fleet_json_out}" "\"healthy\": true")

# Parallel rounds keep the text report byte-identical to the serial path.
run_cli(fleet_serial_out fleet --chains=4 --hosts=4 --requests=3 --fail=host-0,time-ms=120)
run_cli(fleet_par_out fleet --chains=4 --hosts=4 --requests=3 --fail=host-0,time-ms=120 --threads=4)
if(NOT fleet_par_out STREQUAL fleet_serial_out)
  message(FATAL_ERROR "fleet --threads=4 report differs from serial:\n--- serial ---\n${fleet_serial_out}\n--- threads=4 ---\n${fleet_par_out}")
endif()
execute_process(COMMAND ${HBFT_CLI} fleet --chains=2 --hosts=2 --threads=0
                ERROR_VARIABLE threads_err RESULT_VARIABLE threads_rc OUTPUT_QUIET)
if(threads_rc EQUAL 0)
  message(FATAL_ERROR "fleet --threads=0 unexpectedly succeeded")
endif()
if(NOT threads_err MATCHES "--threads must be >= 1")
  message(FATAL_ERROR "fleet --threads=0 missing validation message:\n${threads_err}")
endif()

# --- bench: JSON artifacts under bench/ -------------------------------------
run_cli(bench_out bench --quick --out-dir=${WORK_DIR}/bench)
foreach(artifact table1.json fig2_cpu.json fig3_io.json fig4_faster_comm.json
        fig4_lossy_link.json fig5_resync.json fig6_throughput.json fig7_fleet.json
        fig8_parallel.json)
  if(NOT EXISTS ${WORK_DIR}/bench/${artifact})
    message(FATAL_ERROR "bench artifact missing: ${WORK_DIR}/bench/${artifact}\n${bench_out}")
  endif()
endforeach()
file(READ ${WORK_DIR}/bench/table1.json table1)
if(NOT table1 MATCHES "\"workload\"" OR NOT table1 MATCHES "\"np\"")
  message(FATAL_ERROR "table1.json missing expected keys:\n${table1}")
endif()

# --- serve: help text, flag validation, and a short sessionless run ---------
run_cli(help_out help)
expect_field("${help_out}" "serve")
expect_field("${help_out}" "--repl-port")
expect_field("${help_out}" "--backup-wait-ms")

# serve refuses the original variant: output commit at the socket boundary
# is the serving contract.
execute_process(COMMAND ${HBFT_CLI} serve --variant=old --port=1
                ERROR_VARIABLE variant_err RESULT_VARIABLE variant_rc)
if(variant_rc EQUAL 0)
  message(FATAL_ERROR "serve --variant=old unexpectedly succeeded")
endif()
if(NOT variant_err MATCHES "output commit")
  message(FATAL_ERROR "serve --variant=old missing contract message:\n${variant_err}")
endif()

# A short clientless session exits cleanly with a complete JSON report.
run_cli(serve_out serve --port=28471 --duration-ms=400 --json)
expect_field("${serve_out}" "\"command\": \"serve\"")
expect_field("${serve_out}" "\"stop_reason\": \"duration\"")
expect_field("${serve_out}" "\"completed\": true")
expect_field("${serve_out}" "\"channels\"")

# --- bench --only: single-artifact regeneration ------------------------------
run_cli(only_out bench --quick --only=fig7_fleet --out-dir=${WORK_DIR}/bench-only)
if(NOT EXISTS ${WORK_DIR}/bench-only/fig7_fleet.json)
  message(FATAL_ERROR "bench --only=fig7_fleet wrote no artifact\n${only_out}")
endif()
if(EXISTS ${WORK_DIR}/bench-only/table1.json)
  message(FATAL_ERROR "bench --only=fig7_fleet also wrote table1.json")
endif()

# Unique prefixes resolve too: --only=fig8 selects fig8_parallel.
run_cli(only8_out bench --quick --only=fig8 --out-dir=${WORK_DIR}/bench-only8)
if(NOT EXISTS ${WORK_DIR}/bench-only8/fig8_parallel.json)
  message(FATAL_ERROR "bench --only=fig8 wrote no artifact\n${only8_out}")
endif()
if(EXISTS ${WORK_DIR}/bench-only8/fig7_fleet.json)
  message(FATAL_ERROR "bench --only=fig8 also wrote fig7_fleet.json")
endif()

message(STATUS "cli smoke test passed")
