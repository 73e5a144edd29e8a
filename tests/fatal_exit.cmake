# A fatal() raised on a pool worker must end the process with exit
# code 1 and its diagnostic while the other workers still run. The
# I2C8S4-lite machine's 2048-word banks cannot hold the DCT-traditional
# table, so every sweep over it stops in a worker's lowering. A racy
# exit shows up only now and then, so the sweep runs RUNS times.
# Invoked as:
#   cmake -DVVSP=<driver> -DMACHINE=<json> -DRUNS=<n> -P fatal_exit.cmake
foreach(i RANGE 1 ${RUNS})
    execute_process(
        COMMAND ${VVSP} sweep --machine=${MACHINE} --no-cache --threads=4
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE status
    )
    if(NOT status STREQUAL "1")
        message(FATAL_ERROR "run ${i} exited with '${status}', not 1:\n${err}")
    endif()
    if(NOT err MATCHES "exceed the 2048-word bank")
        message(FATAL_ERROR "run ${i} lacks the bank diagnostic:\n${err}")
    endif()
endforeach()
