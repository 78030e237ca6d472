# perfbench's correctness, never its timing: one short untraced run per
# workload (calls, serving, mc) must end with a JSON line reporting
# "correct": true (every output fingerprint and accounting check held) and
# "failed": 0. perfbench/run.py builds the measuring program under
# $CARGO_TARGET_DIR/perfbench, so the first run compiles all of src/.
# Inputs: -DPYTHON=<python3> -DSOURCE_DIR=<repository root>

if(NOT DEFINED PYTHON OR NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "run_perfbench_correctness.cmake needs PYTHON and SOURCE_DIR")
endif()

foreach(workload calls serving mc)
  execute_process(
    COMMAND "${PYTHON}" perfbench/run.py --workload ${workload} --seed 1
            --seconds 2 --trace 0
    WORKING_DIRECTORY "${SOURCE_DIR}"
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err
  )
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "perfbench ${workload} exited ${run_rc}:\n${run_err}\n${run_out}")
  endif()
  string(STRIP "${run_out}" run_out)
  string(REGEX REPLACE "^.*\n" "" last_line "${run_out}")
  if(NOT last_line MATCHES "^{\"correct\": true, \"attempted\": [0-9]+, \"failed\": 0, ")
    message(FATAL_ERROR "perfbench ${workload} is not correct:\n${run_out}")
  endif()
  message(STATUS "perfbench ${workload}: correct, 0 failed")
endforeach()
