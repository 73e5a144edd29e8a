# The +2LS derivation on the two-slot clusters must run or be refused,
# never abort. On I2C16S5+2LS a multiplier and a load/store unit share
# slot 0, so a row whose load is reserved before its multiply needs
# the witness slots re-seated; every cell must still pass its golden
# check. I2C16S4 already has a load/store unit on each of its two
# slots, so I2C16S4+2LS is refused with a diagnostic and exit code 1.
# Invoked as:
#   cmake -DVVSP=<driver> -P dual_lsu.cmake
execute_process(
    COMMAND ${VVSP} sweep dct-rowcol --machine=I2C16S5+2LS --json
        --no-cache --threads=2
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE status
)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "I2C16S5+2LS exited with '${status}', not 0:\n${err}")
endif()
if(NOT out MATCHES "\"passed\": true" OR out MATCHES "\"passed\": false")
    message(FATAL_ERROR "I2C16S5+2LS has a golden mismatch:\n${out}")
endif()

execute_process(
    COMMAND ${VVSP} sweep --machine=I2C16S4+2LS --no-cache --threads=2
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE status
)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "I2C16S4+2LS exited with '${status}', not 1:\n${err}")
endif()
if(NOT err MATCHES "I2C16S4\\+2LS: 3 load/store units but only 2 issue slots")
    message(FATAL_ERROR "I2C16S4+2LS lacks the diagnostic:\n${err}")
endif()
