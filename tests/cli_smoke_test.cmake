# Smoke test for the hbft_cli scenario driver, run via `cmake -P`.
# Checks that `run`, `fleet`, `serve` and `bench --quick` exit 0 and that
# their reports contain the expected fields / artifacts, and that malformed
# or unsatisfiable requests exit non-zero. A text report is the --json
# document flattened to one `path : value` line per leaf, so its checks
# match document paths.
file(MAKE_DIRECTORY ${WORK_DIR})

# Every command runs under a TIMEOUT, so a hung one fails fast and is named
# (rc becomes "Process terminated due to timeout") instead of using up the
# whole ctest budget.
function(run_cli out_var)
  execute_process(COMMAND ${HBFT_CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  OUTPUT_VARIABLE output
                  ERROR_VARIABLE output
                  RESULT_VARIABLE rc
                  TIMEOUT 300)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "hbft_cli ${ARGN} exited ${rc}:\n${output}")
  endif()
  set(${out_var} "${output}" PARENT_SCOPE)
endfunction()

# Malformed input is a usage error: exit 2 with a message matching
# `pattern`. Exactly 2, because an abort (134) is non-zero too.
function(expect_usage_error pattern)
  execute_process(COMMAND ${HBFT_CLI} ${ARGN}
                  WORKING_DIRECTORY ${WORK_DIR}
                  OUTPUT_QUIET
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc
                  TIMEOUT 60)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "${pattern}")
    message(FATAL_ERROR
            "hbft_cli ${ARGN}: expected exit 2 with '${pattern}', got ${rc}:\n${err}")
  endif()
endfunction()

function(expect_field output field)
  if(NOT output MATCHES "${field}")
    message(FATAL_ERROR "expected field '${field}' missing from report:\n${output}")
  endif()
endfunction()

# --- run: bare vs replicated comparison report ------------------------------
run_cli(run_out run --workload=txnlog --iterations=6 --epoch-length=4096 --variant=new)
expect_field("${run_out}" "workload +: \"txnlog\"")
expect_field("${run_out}" "replicated\\.completed +: ")
expect_field("${run_out}" "comparison\\.normalized_performance +: ")
expect_field("${run_out}" "replicated\\.guest_checksum +: ")

# --- run --mode=bare: no replication ----------------------------------------
run_cli(bare_out run --workload=cpu --iterations=2000 --mode=bare)
expect_field("${bare_out}" "bare\\.completed +: true")

# --- run --fail: failure injection through the run subcommand ---------------
run_cli(fail_out run --workload=txnlog --iterations=6 --fail=phase=after-send-tme,epoch=2)
expect_field("${fail_out}" "replicated\\.replication\\.promoted +: true")

# --- failover drill: primary kill with promotion-latency report -------------
run_cli(drill_out run --variant=new --fail=phase=after-send-tme,epoch=3)
expect_field("${drill_out}" "replicated\\.replication\\.promoted +: true")
expect_field("${drill_out}" "nodes\\.1\\.promotion_latency_ms +: ")
expect_field("${drill_out}" "crash_times_ms\\.0 +: ")
expect_field("${drill_out}" "verdict +: \"PASS\"")
run_cli(drill_old_out run --variant=old --epoch-length=2048
        --fail=phase=after-send-tme,epoch=3)
expect_field("${drill_old_out}" "replicated\\.replication\\.promoted +: true")
expect_field("${drill_old_out}" "verdict +: \"PASS\"")

# --- repair drill: kill -> resync (live state transfer) -> kill again -------
run_cli(repair_out run --iterations=40 --fail=phase=after-send-tme,epoch=3
        --fail=rejoin-after-ms=20 --fail=after-resync-ms=10)
expect_field("${repair_out}" "nodes\\.2\\.promotion_latency_ms +: ")
expect_field("${repair_out}" "resyncs\\.0\\.completed +: true")
expect_field("${repair_out}" "resyncs\\.0\\.latency_ms +: ")
expect_field("${repair_out}" "resyncs\\.0\\.bytes +: ")
expect_field("${repair_out}" "verdict +: \"PASS\"")

# --- a kill that never fires fails the run: the workload ends first ----------
execute_process(COMMAND ${HBFT_CLI} run --workload=txnlog --iterations=6
                        --fail=time-ms=100000
                WORKING_DIRECTORY ${WORK_DIR}
                OUTPUT_VARIABLE unfired_out
                ERROR_VARIABLE unfired_out
                RESULT_VARIABLE unfired_rc
                TIMEOUT 300)
if(NOT unfired_rc EQUAL 1)
  message(FATAL_ERROR "run with a kill that never fires exited ${unfired_rc}, want 1:\n"
                      "${unfired_out}")
endif()
expect_field("${unfired_out}"
             "failed_checks\\.0 +: \"scheduled kill never fired: 0 of 1 fired \\(at-time 100000 ms\\)\"")
expect_field("${unfired_out}" "verdict +: \"FAIL\"")

# --- run --json: machine-readable report with a fail->rejoin schedule --------
run_cli(json_out run --workload=txnlog --iterations=12 --json
        --fail=phase=after-send-tme,epoch=2 --fail=rejoin-after-ms=10)
expect_field("${json_out}" "\"normalized_performance\"")
expect_field("${json_out}" "\"env_consistency\": true")
expect_field("${json_out}" "\"resyncs\"")
expect_field("${json_out}" "\"completed\": true")
expect_field("${json_out}" "\"promotion_latency_ms\"")

# --- run --json: a seed above INT64_MAX prints unsigned, as it was given ------
run_cli(seed_json_out run --workload=cpu --iterations=200 --mode=bare
        --seed=18446744073709551615 --json)
expect_field("${seed_json_out}" "\"seed\": 18446744073709551615")

# --- run --backups=2: cascading failover through a backup chain -------------
run_cli(cascade_out run --backups=2 --fail=time-ms=6
        --fail=phase=after-io-issue,crash-io=not-performed)
expect_field("${cascade_out}" "nodes\\.2\\.promotion_latency_ms +: ")
expect_field("${cascade_out}" "verdict +: \"PASS\"")
run_cli(cascade_default_out run --backups=2 --variant=new
        --fail=phase=after-send-tme,epoch=3 --fail=phase=after-io-issue)
expect_field("${cascade_default_out}" "nodes\\.2\\.promotion_latency_ms +: ")
expect_field("${cascade_default_out}" "verdict +: \"PASS\"")

# --- run --backups=2: chain without failures, N'/N + consistency ------------
run_cli(chain_run_out run --workload=txnlog --iterations=6 --backups=2)
expect_field("${chain_run_out}" "replicated\\.replication\\.replicas +: 3\n")
expect_field("${chain_run_out}" "comparison\\.env_consistency +: true")

# --- net-echo: NIC scenario through the run subcommand -----------------------
run_cli(net_out run --workload=net-echo --iterations=3)
expect_field("${net_out}" "workload +: \"net-echo\"")
expect_field("${net_out}" "replicated\\.completed +: true")
expect_field("${net_out}" "comparison\\.env_consistency +: true")

# --- net-echo failover: NIC covered by P6/P7 ---------------------------------
run_cli(net_fail_out run --workload=net-echo --iterations=3
        --fail=phase=after-io-issue,crash-io=not-performed)
expect_field("${net_fail_out}" "replicated\\.replication\\.promoted +: true")
expect_field("${net_fail_out}" "comparison\\.env_consistency +: true")

# --- device fault-plan knobs: retry-after-uncertain on both legacy devices ---
run_cli(faults_out run --workload=txnlog --iterations=6 --disk-uncertain=0.3
        --console-uncertain=0.3 --uncertain-performed=0.5 --mode=replicated)
expect_field("${faults_out}" "replicated\\.completed +: true")

# --- net-echo drill: promotion report over the three-device workload ---------
run_cli(net_drill_out run --workload=net-echo --fail=phase=after-send-tme,epoch=3)
expect_field("${net_drill_out}" "replicated\\.replication\\.promoted +: true")
expect_field("${net_drill_out}" "verdict +: \"PASS\"")

# --- echo: the console workload reads one typed character per iteration ------
run_cli(echo_out run --workload=echo --iterations=3)
expect_field("${echo_out}" "comparison\\.env_consistency +: true")
expect_field("${echo_out}" "verdict +: \"PASS\"")
run_cli(echo_fail_out run --workload=echo --fail=phase=after-io-issue)
expect_field("${echo_fail_out}" "replicated\\.replication\\.promoted +: true")
expect_field("${echo_fail_out}" "verdict +: \"PASS\"")

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
expect_field("${fleet_out}" "config\\.chains +: 4\n")
expect_field("${fleet_out}" "chains_completed +: 4\n")
expect_field("${fleet_out}" "chains_lost +: 0\n")
expect_field("${fleet_out}" "all_env_consistent +: true")
expect_field("${fleet_out}" "healthy +: true")
run_cli(fleet_json_out fleet --chains=2 --hosts=2 --requests=2 --no-verify --json)
expect_field("${fleet_json_out}" "\"availability\"")
expect_field("${fleet_json_out}" "\"fingerprint\"")
expect_field("${fleet_json_out}" "\"healthy\": true")

# Parallel rounds keep the text report byte-identical to the serial path,
# apart from the line echoing the thread count.
run_cli(fleet_serial_out fleet --chains=4 --hosts=4 --requests=3 --fail=host-0,time-ms=120)
run_cli(fleet_par_out fleet --chains=4 --hosts=4 --requests=3 --fail=host-0,time-ms=120 --threads=4)
string(REGEX REPLACE "config\\.threads +: [0-9]+\n" "" fleet_serial_out "${fleet_serial_out}")
string(REGEX REPLACE "config\\.threads +: [0-9]+\n" "" fleet_par_out "${fleet_par_out}")
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

# Sizes the fleet cannot run with, and --fail specs that used to run a
# different failure (or none) than asked: all usage errors.
expect_usage_error("--hosts must be >= 1" fleet --requests=2 --hosts=0)
expect_usage_error("--chains must be >= 1" fleet --requests=2 --chains=0)
expect_usage_error("--backups must be >= 1" fleet --requests=2 --backups=0)
expect_usage_error("--repair-concurrency must be >= 1" fleet --requests=2
                   --repair-concurrency=0)
expect_usage_error("--payload-bytes must be <= 256" fleet --requests=2 --payload-bytes=5000)
expect_usage_error("bad host in --fail" fleet --chains=2 --hosts=2 --requests=2
                   --fail=host-,time-ms=50)
expect_usage_error("time-ms expects" fleet --chains=2 --hosts=2 --requests=2
                   --fail=host-1,time-ms=abc)
expect_usage_error("hosts expects" fleet --chains=2 --hosts=2 --requests=2
                   --fail=host-storm,hosts=abc,time-ms=50)
expect_usage_error("hosts expects" fleet --chains=2 --hosts=2 --requests=2
                   --fail=host-storm,hosts=0,time-ms=50)

# Malformed numbers (a signed or wrapping count, a NaN, infinite, negative
# or out-of-range time) are usage errors, never a hang, an abort, or a run
# of a different scenario than asked.
expect_usage_error("--rto-ms expects milliseconds" run --workload=txnlog --rto-ms=nan
                   --loss=0.05)
expect_usage_error("time-ms expects milliseconds" fleet --chains=2 --hosts=2
                   --fail=host-0,time-ms=inf)
expect_usage_error("--backups expects an integer" run --backups=-1)
expect_usage_error("--backups expects an integer" run --backups=4294967297)
expect_usage_error("--iterations expects an integer" run --iterations=-1)
expect_usage_error("--seed expects an integer" run --seed=99999999999999999999)
expect_usage_error("time-ms expects milliseconds" run --fail=time-ms=nan)
expect_usage_error("time-ms expects milliseconds" run --fail=time-ms=1e30)
expect_usage_error("time-ms expects milliseconds" run --fail=time-ms=-5)
expect_usage_error("--loss expects a finite number" run --loss=nan)
expect_usage_error("--interval-ms expects milliseconds" fleet --interval-ms=nan)
expect_usage_error("--slo-ms expects milliseconds" fleet --slo-ms=-1)
expect_usage_error("--epoch-length expects an integer" fleet --epoch-length=-5)
expect_usage_error("--payload-bytes expects an integer" fleet --payload-bytes=4294967297)
expect_usage_error("--max-time-ms expects milliseconds" fleet --max-time-ms=nan)

# An epoch is at least one instruction. Taken as given, 0 would expire the
# recovery counter after every instruction in `run` and `serve`, and mean the
# 4096 default in `fleet`.
expect_usage_error("--epoch-length must be >= 1" run --workload=txnlog --iterations=2
                   --epoch-length=0)
expect_usage_error("--epoch-length must be >= 1" fleet --chains=2 --hosts=2 --requests=2
                   --epoch-length=0)
expect_usage_error("--epoch-length must be >= 1" serve --role=single --epoch-length=0
                   --duration-ms=100)

# The worker pool spawns all its threads when the fleet starts, so their
# number is bounded (a usage error, not a request for that many OS threads).
expect_usage_error("--threads must be <= 256" fleet --chains=2 --hosts=2 --requests=2
                   --threads=257)

# A bare run has no replica to kill: a --fail schedule would silently do
# nothing.
expect_usage_error("--fail needs a replicated run" run --mode=bare --fail=time-ms=5)

# Every command runs the cached interpreter: there is no engine selector.
expect_usage_error("unknown flag --interp" run --workload=cpu --iterations=3 --interp=cached)

# A link is ideal or lossy for the whole run, with an unbounded sender queue.
expect_usage_error("unknown flag --loss-until-ms" run --loss=0.05 --loss-until-ms=1)
expect_usage_error("unknown flag --link-queue" run --loss=0.05 --link-queue=1)

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

# serve checks its --fail schedule as run does: an after-resync kill needs
# an earlier rejoin, and a backup target must exist in the chain.
expect_usage_error("needs an earlier rejoin event" serve --role=single
                   --fail=after-resync-ms=5)
expect_usage_error("targets backup 3 but the chain has only 1 backup" serve --role=single
                   --fail=time-ms=5,target=backup:3)

# Only --role=single builds a chain; a wire role given --backups would
# silently serve as a plain pair.
expect_usage_error("--backups applies to --role=single only" serve --role=primary
                   --backups=3 --duration-ms=100)

# Ports beyond 16 bits are rejected, not wrapped onto another port.
expect_usage_error("--port must be a TCP port" serve --port=70000 --duration-ms=100)
expect_usage_error("--repl-port must be a TCP port" serve --repl-port=70001 --duration-ms=100)

# A short clientless session exits cleanly with a complete JSON report.
# `revised` names the same protocol as `new`, as it does for run.
run_cli(serve_out serve --port=28471 --duration-ms=400 --variant=revised --json)
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
