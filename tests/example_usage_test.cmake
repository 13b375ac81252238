# example_hotspot_study with a configuration name outside A-E must print
# its usage line naming A-E and exit 2, before any simulation (nothing on
# stdout). Run as
#   cmake -DEXAMPLE=<example_hotspot_study> -P <this file>
if(NOT EXAMPLE)
  message(FATAL_ERROR "set EXAMPLE")
endif()
execute_process(COMMAND "${EXAMPLE}" Z
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "${EXAMPLE} Z: exit code ${rc}, expected 2\n${err}")
endif()
if(NOT err MATCHES "usage: .*A\\|B\\|C\\|D\\|E")
  message(FATAL_ERROR "${EXAMPLE} Z: no usage line naming A-E:\n${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${EXAMPLE} Z: simulated before rejecting:\n${out}")
endif()
