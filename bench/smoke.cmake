# bench_smoke: every bench binary must complete quickly under --smoke and
# emit a JSON trajectory that bench_json_check accepts. Each test runs
# <bench> --smoke --threads=2 --json=<file> and then validates the file;
# run_smoke.cmake chains the two steps so a crashed bench (or unwritable
# JSON) fails the test rather than silently passing. The serving benches
# also write their span trace (--trace), validated as a Chrome trace.

set(ACS_SMOKE_BENCHES
  bench_table1_security
  bench_fig5_spec
  bench_table2_geomean
  bench_table3_nginx
  bench_fig_collisions
  bench_bruteforce
  bench_confirm
  bench_reuse
  bench_ablation
  bench_fault_availability
  bench_serving_tail
  bench_serving_topology
  bench_kernel_sweep
)

set(ACS_TRACED_SMOKE_BENCHES bench_serving_tail bench_serving_topology)

foreach(bench_name IN LISTS ACS_SMOKE_BENCHES)
  set(trace_arg "")
  if(bench_name IN_LIST ACS_TRACED_SMOKE_BENCHES)
    set(trace_arg
        -DTRACE=${CMAKE_CURRENT_BINARY_DIR}/TRACE_${bench_name}.json)
  endif()
  add_test(NAME bench_smoke_${bench_name}
           COMMAND ${CMAKE_COMMAND}
                   -DBENCH=$<TARGET_FILE:${bench_name}>
                   -DCHECKER=$<TARGET_FILE:bench_json_check>
                   -DJSON=${CMAKE_CURRENT_BINARY_DIR}/BENCH_${bench_name}.json
                   ${trace_arg}
                   -P ${CMAKE_CURRENT_SOURCE_DIR}/run_smoke.cmake)
  set_tests_properties(bench_smoke_${bench_name} PROPERTIES
                       LABELS "bench_smoke" TIMEOUT 300)
endforeach()

# Thread-invariance pin for the fault-injection campaign: the trajectory
# (including the "faults" and "obs" sections) must be bitwise identical at
# --threads 1, 2 and 8 once the wall_seconds line is stripped, and equal
# the checked-in reference exactly.
add_test(NAME bench_fault_invariance
         COMMAND ${CMAKE_COMMAND}
                 -DBENCH=$<TARGET_FILE:bench_fault_availability>
                 -DJSON_DIR=${CMAKE_CURRENT_BINARY_DIR}
                 -DPREFIX=fault
                 -DDIFF=$<TARGET_FILE:acs-bench-diff>
                 -DREFERENCE=${CMAKE_CURRENT_SOURCE_DIR}/reference/BENCH_fault_availability_smoke.json
                 -P ${CMAKE_CURRENT_SOURCE_DIR}/run_serving_invariance.cmake)
set_tests_properties(bench_fault_invariance PROPERTIES
                     LABELS "bench_smoke" TIMEOUT 600)

# Thread-invariance pin for the synthetic-kernel overhead sweep: the
# "kernels" section is built from deterministic simulated cycle counts, so
# the full trajectory must be bitwise identical at --threads 1, 2 and 8
# and equal the checked-in reference exactly.
add_test(NAME bench_kernels_invariance
         COMMAND ${CMAKE_COMMAND}
                 -DBENCH=$<TARGET_FILE:bench_kernel_sweep>
                 -DJSON_DIR=${CMAKE_CURRENT_BINARY_DIR}
                 -DPREFIX=kernels
                 -DDIFF=$<TARGET_FILE:acs-bench-diff>
                 -DREFERENCE=${CMAKE_CURRENT_SOURCE_DIR}/reference/BENCH_kernel_sweep_smoke.json
                 -P ${CMAKE_CURRENT_SOURCE_DIR}/run_serving_invariance.cmake)
set_tests_properties(bench_kernels_invariance PROPERTIES
                     LABELS "bench_smoke" TIMEOUT 600)

# Thread-invariance pin for the serving tail-latency bench: the trajectory
# — including the full "topology" percentile section — must be bitwise
# identical at --threads 1, 2 and 8, and the threads=1 run must match the
# checked-in reference trajectory exactly under acs-bench-diff (the
# tail-latency regression gate).
add_test(NAME bench_serving_invariance
         COMMAND ${CMAKE_COMMAND}
                 -DBENCH=$<TARGET_FILE:bench_serving_tail>
                 -DJSON_DIR=${CMAKE_CURRENT_BINARY_DIR}
                 -DDIFF=$<TARGET_FILE:acs-bench-diff>
                 -DREFERENCE=${CMAKE_CURRENT_SOURCE_DIR}/reference/BENCH_serving_tail_smoke.json
                 -P ${CMAKE_CURRENT_SOURCE_DIR}/run_serving_invariance.cmake)
set_tests_properties(bench_serving_invariance PROPERTIES
                     LABELS "bench_smoke" TIMEOUT 600)

# Thread-invariance + regression pin for the multi-tier topology bench:
# same contract as bench_serving_invariance (bitwise-identical trajectories
# at --threads 1/2/8, then acs-bench-diff against the checked-in reference)
# over the "topology" section — including the per-phase goodput split that
# shows the unmitigated retry storm going metastable.
add_test(NAME bench_topology_invariance
         COMMAND ${CMAKE_COMMAND}
                 -DBENCH=$<TARGET_FILE:bench_serving_topology>
                 -DJSON_DIR=${CMAKE_CURRENT_BINARY_DIR}
                 -DPREFIX=topology
                 -DDIFF=$<TARGET_FILE:acs-bench-diff>
                 -DREFERENCE=${CMAKE_CURRENT_SOURCE_DIR}/reference/BENCH_serving_topology_smoke.json
                 -P ${CMAKE_CURRENT_SOURCE_DIR}/run_serving_invariance.cmake)
set_tests_properties(bench_topology_invariance PROPERTIES
                     LABELS "bench_smoke" TIMEOUT 600)

# Exact pin for Table 1 and the Appendix A games: every Monte-Carlo rate
# in the smoke trajectory must be bitwise identical at --threads 1/2/8 and
# equal the checked-in reference, so a change to how a campaign computes
# its MACs cannot move a single success.
add_test(NAME bench_table1_invariance
         COMMAND ${CMAKE_COMMAND}
                 -DBENCH=$<TARGET_FILE:bench_table1_security>
                 -DJSON_DIR=${CMAKE_CURRENT_BINARY_DIR}
                 -DPREFIX=table1
                 -DDIFF=$<TARGET_FILE:acs-bench-diff>
                 -DREFERENCE=${CMAKE_CURRENT_SOURCE_DIR}/reference/BENCH_table1_security_smoke.json
                 -P ${CMAKE_CURRENT_SOURCE_DIR}/run_serving_invariance.cmake)
set_tests_properties(bench_table1_invariance PROPERTIES
                     LABELS "bench_smoke" TIMEOUT 600)

# Exact pin for Table 3 (E4): TPS, sigma and the per-scheme obs counters
# of the smoke trajectory must be bitwise identical at --threads 1/2/8 and
# equal the checked-in reference.
add_test(NAME bench_table3_invariance
         COMMAND ${CMAKE_COMMAND}
                 -DBENCH=$<TARGET_FILE:bench_table3_nginx>
                 -DJSON_DIR=${CMAKE_CURRENT_BINARY_DIR}
                 -DPREFIX=table3
                 -DDIFF=$<TARGET_FILE:acs-bench-diff>
                 -DREFERENCE=${CMAKE_CURRENT_SOURCE_DIR}/reference/BENCH_table3_nginx_smoke.json
                 -P ${CMAKE_CURRENT_SOURCE_DIR}/run_serving_invariance.cmake)
set_tests_properties(bench_table3_invariance PROPERTIES
                     LABELS "bench_smoke" TIMEOUT 600)

# acs-run emits the same schema through its own flag parser.
add_test(NAME bench_smoke_acs_run
         COMMAND ${CMAKE_COMMAND}
                 -DBENCH=$<TARGET_FILE:acs-run>
                 "-DBENCH_ARGS=--workload;505.mcf_r;--scheme;pacstack"
                 -DCHECKER=$<TARGET_FILE:bench_json_check>
                 -DJSON=${CMAKE_CURRENT_BINARY_DIR}/BENCH_acs_run.json
                 -P ${CMAKE_CURRENT_SOURCE_DIR}/run_smoke.cmake)
set_tests_properties(bench_smoke_acs_run PROPERTIES
                     LABELS "bench_smoke" TIMEOUT 300)
