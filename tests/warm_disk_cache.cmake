# End-to-end check that a JSON-only machine flows through the whole
# pipeline including the persistent cache: run `vvsp sweep --machine
# <file>` twice against a fresh cache directory; the warm rerun must
# report disk hits (and identical cell output). Invoked as:
#   cmake -DVVSP=<driver> -DMACHINE=<json> -DCACHE_DIR=<dir> -P warm_disk_cache.cmake
file(REMOVE_RECURSE ${CACHE_DIR})
set(args sweep colorconv --machine=${MACHINE} --variant=List-scheduled
    --threads=1 --cache-dir=${CACHE_DIR} --stats)
execute_process(
    COMMAND ${VVSP} ${args}
    OUTPUT_VARIABLE cold
    RESULT_VARIABLE status
)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "cold run exited with ${status}")
endif()
if(NOT cold MATCHES "disk_cache/store = 1")
    message(FATAL_ERROR "cold run did not store to disk:\n${cold}")
endif()
execute_process(
    COMMAND ${VVSP} ${args}
    OUTPUT_VARIABLE warm
    RESULT_VARIABLE status
)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "warm run exited with ${status}")
endif()
if(NOT warm MATCHES "disk_cache/hit = 1")
    message(FATAL_ERROR "warm run missed the disk cache:\n${warm}")
endif()
# The rendered table (everything before the stats dump) must agree.
string(REGEX REPLACE "== stats ==.*" "" cold_table "${cold}")
string(REGEX REPLACE "== stats ==.*" "" warm_table "${warm}")
if(NOT cold_table STREQUAL warm_table)
    message(FATAL_ERROR
        "warm table differs from cold:\n${cold_table}\n--\n${warm_table}")
endif()
file(REMOVE_RECURSE ${CACHE_DIR})
