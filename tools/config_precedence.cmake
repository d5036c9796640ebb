# Round trip through aquamac_sim --config: a scenario saved from flags,
# loaded back with only --time given, must save byte-identically. Flags
# left at their defaults must not override the file. A file's checkpoint
# keys must take effect without checkpoint flags, and given checkpoint
# flags must reach --save-config.
#
#   cmake -DSIM=<aquamac_sim> -DDIR=<scratch dir> -P config_precedence.cmake

file(MAKE_DIRECTORY "${DIR}")
execute_process(
  COMMAND "${SIM}" --mac S-FAMA --nodes 12 --time 1 --save-config "${DIR}/a.cfg"
  RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "saving a.cfg failed (${status})")
endif()
execute_process(
  COMMAND "${SIM}" --config "${DIR}/a.cfg" --time 1 --save-config "${DIR}/b.cfg"
  RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "loading a.cfg and saving b.cfg failed (${status})")
endif()
file(READ "${DIR}/a.cfg" saved)
file(READ "${DIR}/b.cfg" reloaded)
if(NOT saved STREQUAL reloaded)
  message(FATAL_ERROR "--config round trip changed the scenario:\n--- a.cfg\n${saved}\n--- b.cfg\n${reloaded}")
endif()

file(REMOVE "${DIR}/x.ckpt")
file(WRITE "${DIR}/ckpt.cfg"
  "node-count = 6\nsim-time-s = 3\ncheckpoint-every-s = 2\ncheckpoint-path = ${DIR}/x.ckpt\n")
execute_process(
  COMMAND "${SIM}" --config "${DIR}/ckpt.cfg"
  RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0 OR NOT EXISTS "${DIR}/x.ckpt")
  message(FATAL_ERROR "--config checkpoint keys wrote no ${DIR}/x.ckpt (${status})")
endif()

execute_process(
  COMMAND "${SIM}" --nodes 6 --time 1 --checkpoint-every-s 5 --checkpoint-out "${DIR}/y.ckpt"
          --save-config "${DIR}/c.cfg"
  RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "saving c.cfg failed (${status})")
endif()
file(READ "${DIR}/c.cfg" flags_saved)
foreach(line "checkpoint-every-s = 5\n" "checkpoint-path = ${DIR}/y.ckpt\n")
  string(FIND "${flags_saved}" "${line}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "--save-config lacks '${line}':\n${flags_saved}")
  endif()
endforeach()
