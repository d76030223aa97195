# Fails when a driver exits non-zero or when the SHA-256 of its stdout
# differs from the recorded one; on a mismatch it prints the output.
#
#   cmake -DDRIVER=<executable> -DSHA256=<hex digest> -P check_output_digest.cmake
#
# Pins the paper figure, table and ablation drivers: their output is
# simulated time and model arithmetic, so a change that must leave the
# simulated figures alone shows it byte for byte.
foreach(var DRIVER SHA256)
  if(NOT DEFINED ${var} OR "${${var}}" STREQUAL "")
    message(FATAL_ERROR "check_output_digest.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(COMMAND "${DRIVER}"
  OUTPUT_VARIABLE output ERROR_VARIABLE errors RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${DRIVER} exited with ${status}:\n${errors}")
endif()
string(SHA256 digest "${output}")
if(NOT digest STREQUAL SHA256)
  message(NOTICE "${output}")
  message(FATAL_ERROR "${DRIVER} printed the output above, SHA-256 ${digest}; "
                      "expected ${SHA256}")
endif()
message(STATUS "${DRIVER}: stdout SHA-256 ${digest}")
