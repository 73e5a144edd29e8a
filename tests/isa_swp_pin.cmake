# Pin the bytes of software-pipelined (modulo) sections: their slot
# fields come from the witness-slot derivation, which the acyclic
# colorconv fixture never reaches. `vvsp asm --kernel` encodes the
# whole kernel and each binary's SHA-256 must match the constant
# below. Variables: VVSP, WORK_DIR.

function(expect_pinned kernel variant machine expected)
    set(out ${WORK_DIR}/isa-swp-pin.bin)
    execute_process(
        COMMAND ${VVSP} asm "--kernel=${kernel}" "--variant=${variant}"
            "--machine=${machine}" "--out=${out}"
        RESULT_VARIABLE rc
        OUTPUT_QUIET
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "vvsp asm failed (${rc}): ${err}")
    endif()
    file(SHA256 ${out} got)
    if(NOT got STREQUAL expected)
        message(FATAL_ERROR "${kernel} \"${variant}\" on ${machine} "
            "encodes to sha256 ${got}, pinned ${expected}")
    endif()
endfunction()

expect_pinned("Full Motion Search" "SW pipelined & unrolled" I4C8S4
    fe18b3d212342218193dbfd6e5361e210733936f07848daf5137ffb8d5309d12)
expect_pinned("DCT - traditional" "+unroll 2 levels & widen" I4C8S5
    223a7c145c5d135a650d01719efdea70b837f8b662566f88aed4dc6b86305010)
