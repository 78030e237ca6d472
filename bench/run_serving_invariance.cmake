# Pins the thread-invariance determinism contract shared by the campaign
# benches (bench_fault_availability, bench_serving_tail,
# bench_serving_topology, bench_kernel_sweep, bench_table1_security,
# bench_table3_nginx): the JSON trajectory — the "metrics" array and every
# deterministic section ("obs", "faults", "topology", "kernels") — must be
# bitwise identical for --threads 1, 2 and 8. Only host timing
# (wall_seconds) and the echoed thread count may differ, so both lines are
# stripped before comparing. Every one of these benches also passes DIFF
# and REFERENCE (bench/smoke.cmake).
#
# Optionally (when DIFF and REFERENCE are given) the threads=1 trajectory
# is also compared against the checked-in reference JSON with acs-bench-diff
# — the regression gate. The trajectories are bitwise deterministic, so the
# diff is exact (--threshold=0); acs-bench-diff ignores host-timed keys.
# Inputs: -DBENCH=<bench binary> -DJSON_DIR=<scratch dir>
#         [-DPREFIX=<output-file prefix, default "serving">]
#         [-DDIFF=<acs-bench-diff> -DREFERENCE=<baseline json>]

if(NOT DEFINED BENCH OR NOT DEFINED JSON_DIR)
  message(FATAL_ERROR "run_serving_invariance.cmake needs BENCH and JSON_DIR")
endif()
if(NOT DEFINED PREFIX)
  set(PREFIX "serving")
endif()

set(reference "")
foreach(threads 1 2 8)
  set(json "${JSON_DIR}/BENCH_${PREFIX}_invariance_t${threads}.json")
  file(REMOVE "${json}")
  execute_process(
    COMMAND "${BENCH}" --smoke "--threads=${threads}" "--json=${json}"
    RESULT_VARIABLE bench_rc
    OUTPUT_VARIABLE bench_out
    ERROR_VARIABLE bench_err
  )
  if(NOT bench_rc EQUAL 0)
    message(FATAL_ERROR
            "${BENCH} --threads=${threads} exited with ${bench_rc}\n"
            "stdout:\n${bench_out}\nstderr:\n${bench_err}")
  endif()
  if(NOT EXISTS "${json}")
    message(FATAL_ERROR "${BENCH} did not write ${json}")
  endif()

  # Strip host timing (wall_seconds) and the echoed thread count — the
  # only lines allowed to differ between runs.
  file(READ "${json}" body)
  string(REGEX REPLACE "\n *\"wall_seconds\":[^\n]*" "" body "${body}")
  string(REGEX REPLACE "\n *\"threads\":[^\n]*" "" body "${body}")

  if(reference STREQUAL "")
    set(reference "${body}")
    set(reference_threads ${threads})
  elseif(NOT body STREQUAL reference)
    message(FATAL_ERROR
            "trajectory differs between --threads=${reference_threads} and "
            "--threads=${threads}: determinism contract violated "
            "(see ${json})")
  endif()
endforeach()

message(STATUS "${BENCH} trajectories identical for --threads 1/2/8")

if(DEFINED DIFF AND DEFINED REFERENCE)
  set(current "${JSON_DIR}/BENCH_${PREFIX}_invariance_t1.json")
  execute_process(
    COMMAND "${DIFF}" "${REFERENCE}" "${current}" --threshold=0
    RESULT_VARIABLE diff_rc
    OUTPUT_VARIABLE diff_out
    ERROR_VARIABLE diff_err
  )
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
            "acs-bench-diff flagged the ${PREFIX} trajectory against the "
            "checked-in reference (exit ${diff_rc})\n"
            "stdout:\n${diff_out}\nstderr:\n${diff_err}")
  endif()
  message(STATUS "acs-bench-diff: ${PREFIX} trajectory identical to the "
                 "checked-in reference")
endif()
