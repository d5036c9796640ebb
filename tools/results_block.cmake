# aquamac_sim's Results block lists every --stats-json key, one line
# each, in the same order.
#
#   cmake -DSIM=<aquamac_sim> -DDIR=<scratch dir> -P results_block.cmake

file(MAKE_DIRECTORY "${DIR}")
execute_process(
  COMMAND "${SIM}" --nodes 6 --time 1 --stats-json "${DIR}/stats.json"
  RESULT_VARIABLE status OUTPUT_VARIABLE out)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "aquamac_sim failed (${status})")
endif()
string(FIND "${out}" "Results\n-------\n" at)
if(at EQUAL -1)
  message(FATAL_ERROR "no Results block in:\n${out}")
endif()
math(EXPR at "${at} + 16")
string(SUBSTRING "${out}" ${at} -1 block)
string(REGEX REPLACE "\n$" "" block "${block}")
string(REPLACE "\n" ";" lines "${block}")

# Every value is a number, so the quoted strings are the keys, in order.
file(READ "${DIR}/stats.json" json)
string(REGEX MATCHALL "\"[a-z0-9_]+\"" keys "${json}")
list(LENGTH keys count)
list(LENGTH lines rows)
if(NOT rows EQUAL count OR count EQUAL 0)
  message(FATAL_ERROR "Results has ${rows} lines, --stats-json has ${count} keys:\n${block}")
endif()
foreach(key line IN ZIP_LISTS keys lines)
  string(REPLACE "\"" "" key "${key}")
  if(NOT line MATCHES "^${key} ")
    message(FATAL_ERROR "Results line '${line}' does not start with key '${key}'")
  endif()
endforeach()
