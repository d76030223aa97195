# Fails when an object file defines a weak symbol, or a global symbol other
# than its declared entry points.
#
#   cmake -DNM=<nm> -DOBJECTS=<file;...> -DENTRY=<demangled name> \
#         -P check_object_symbols.cmake
#
# Guards the AVX2 lane kernel object (core/lane_kernel_avx2.cpp): a weak
# symbol there is an AVX2-encoded copy of an inline function that the linker
# may pick for the whole program, and any other global symbol is kernel code
# callable without the dispatcher's CPU check.  ENTRY matches the demangled
# name up to its parameter list.
foreach(var NM OBJECTS ENTRY)
  if(NOT DEFINED ${var} OR "${${var}}" STREQUAL "")
    message(FATAL_ERROR "check_object_symbols.cmake needs -D${var}=...")
  endif()
endforeach()

set(offenders "")
foreach(object IN LISTS OBJECTS)
  execute_process(COMMAND "${NM}" -C --defined-only "${object}"
    OUTPUT_VARIABLE listing ERROR_VARIABLE errors RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${NM} failed on ${object}: ${errors}")
  endif()
  string(REPLACE "\n" ";" lines "${listing}")
  set(entry_found FALSE)
  foreach(line IN LISTS lines)
    # "<address> <type> <name>"; lower-case types are local except the weak
    # (v, w) and unique-global (u) ones.
    if(NOT line MATCHES "^[0-9a-fA-F]* *([A-Za-z]) (.*)$")
      continue()
    endif()
    set(type "${CMAKE_MATCH_1}")
    set(name "${CMAKE_MATCH_2}")
    if(type MATCHES "^[VvWwu]$")
      list(APPEND offenders "weak: ${line}")
    elseif(type MATCHES "^[A-Z]$")
      string(FIND "${name}" "${ENTRY}(" at)
      if(at EQUAL 0)
        set(entry_found TRUE)
      else()
        list(APPEND offenders "global: ${line}")
      endif()
    endif()
  endforeach()
  if(NOT entry_found)
    list(APPEND offenders "missing entry point ${ENTRY} in ${object}")
  endif()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " report)
  message(FATAL_ERROR "unexpected symbols:\n  ${report}")
endif()
message(STATUS "only ${ENTRY} is global in ${OBJECTS}")
