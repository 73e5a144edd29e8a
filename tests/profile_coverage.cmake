# `vvsp utilization --profile` must time its cycle-simulated units:
# the profile needs a `cycle_sim` row, and every indented row (a phase
# nested in its parent, such as modulo_sched in compose) must take at
# most 100% of its parent, which fails when a nested phase runs
# outside its parent. Invoked as:
#   cmake -DVVSP=<driver> -P profile_coverage.cmake
execute_process(
    COMMAND ${VVSP} utilization --model=I4C8S4 --threads=1
        --no-disk-cache --profile --stats
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE status
)
if(NOT status STREQUAL "0")
    message(FATAL_ERROR "utilization exited with '${status}':\n${err}")
endif()
string(REGEX MATCH "== profile[^\n]*\n.*pipeline total" profile "${out}")
if(profile STREQUAL "")
    message(FATAL_ERROR "no profile table in the output:\n${out}")
endif()
if(NOT profile MATCHES "\ncycle_sim +[0-9]+ ")
    message(FATAL_ERROR "the profile has no cycle_sim row:\n${profile}")
endif()
string(REGEX MATCHALL "\n  [a-z_]+ +[0-9]+ +[0-9.]+ +[0-9.]+ +[0-9.]+% of parent"
    nested "${profile}")
if(NOT nested)
    message(FATAL_ERROR "the profile has no nested rows:\n${profile}")
endif()
foreach(row IN LISTS nested)
    string(REGEX REPLACE ".* ([0-9.]+)% of parent" "\\1" share "${row}")
    if(share GREATER 100)
        message(FATAL_ERROR
            "a nested phase exceeds its parent (${share}%):\n${profile}")
    endif()
endforeach()
