# Round trip through aquamac_sim --config: a scenario saved from flags,
# loaded back with only --time given, must save byte-identically. Flags
# left at their defaults must not override the file.
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
