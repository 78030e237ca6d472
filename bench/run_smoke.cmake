# Runs one bench in smoke mode and validates its JSON trajectory.
# Inputs: -DBENCH=<binary> [-DBENCH_ARGS=a;b;c] -DCHECKER=<bench_json_check>
#         -DJSON=<output path> [-DTRACE=<trace output path>]
# The bench always gets --smoke --threads=2 --json=${JSON} appended. With
# TRACE it also gets --trace=${TRACE}, and the Chrome trace it writes is
# validated with bench_json_check --trace-file.

if(NOT DEFINED BENCH OR NOT DEFINED CHECKER OR NOT DEFINED JSON)
  message(FATAL_ERROR "run_smoke.cmake needs BENCH, CHECKER and JSON")
endif()

set(trace_args "")
if(DEFINED TRACE)
  file(REMOVE "${TRACE}")
  set(trace_args "--trace=${TRACE}")
endif()

file(REMOVE "${JSON}")

execute_process(
  COMMAND "${BENCH}" ${BENCH_ARGS} --smoke --threads=2 "--json=${JSON}"
          ${trace_args}
  RESULT_VARIABLE bench_rc
  OUTPUT_VARIABLE bench_out
  ERROR_VARIABLE bench_err
)
if(NOT bench_rc EQUAL 0)
  message(FATAL_ERROR
          "${BENCH} exited with ${bench_rc}\nstdout:\n${bench_out}\n"
          "stderr:\n${bench_err}")
endif()

if(NOT EXISTS "${JSON}")
  message(FATAL_ERROR "${BENCH} did not write ${JSON}")
endif()

execute_process(
  COMMAND "${CHECKER}" "${JSON}"
  RESULT_VARIABLE check_rc
  OUTPUT_VARIABLE check_out
  ERROR_VARIABLE check_err
)
if(NOT check_rc EQUAL 0)
  message(FATAL_ERROR
          "bench_json_check rejected ${JSON}:\n${check_out}${check_err}")
endif()

message(STATUS "${JSON} validated: ${check_out}")

if(DEFINED TRACE)
  if(NOT EXISTS "${TRACE}")
    message(FATAL_ERROR "${BENCH} did not write ${TRACE}")
  endif()
  execute_process(
    COMMAND "${CHECKER}" --trace-file "${TRACE}"
    RESULT_VARIABLE trace_rc
    OUTPUT_VARIABLE trace_out
    ERROR_VARIABLE trace_err
  )
  if(NOT trace_rc EQUAL 0)
    message(FATAL_ERROR
            "bench_json_check rejected ${TRACE}:\n${trace_out}${trace_err}")
  endif()
  message(STATUS "${TRACE} validated: ${trace_out}")
endif()
