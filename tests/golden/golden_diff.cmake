# Golden-file regression check, run as a ctest entry:
#
#   cmake -DBENCH=<bench binary> -DOUT=<scratch csv> -DGOLDEN=<fixture>
#         [-DSIMD=<REACT_SIMD value>] -P golden_diff.cmake
#
# Runs the bench with `--csv OUT` and requires the produced file to be
# byte-identical to the committed fixture.  Benches print doubles with
# %.17g, so any drift in the simulation -- physics, seeding, iteration
# order -- fails the exact comparison.  Regenerate fixtures deliberately
# with: <bench> --csv tests/golden/<name>.csv
#
# With SIMD set, the bench runs under REACT_SIMD=${SIMD} (the lane
# engine) and must still match the same fixture: the lane kernels are
# bit-exact by contract, so a mismatch there is a kernel bug, never a
# reason to regenerate.
if(NOT BENCH OR NOT OUT OR NOT GOLDEN)
    message(FATAL_ERROR "golden_diff.cmake needs -DBENCH, -DOUT, -DGOLDEN")
endif()

set(run ${BENCH} --csv ${OUT})
if(SIMD)
    set(run ${CMAKE_COMMAND} -E env REACT_SIMD=${SIMD} ${run})
endif()
execute_process(
    COMMAND ${run}
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_out)
if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} exited with ${run_rc}:\n${run_out}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
    execute_process(COMMAND diff -u ${GOLDEN} ${OUT}
                    OUTPUT_VARIABLE diff_text ERROR_QUIET)
    if(SIMD)
        message(FATAL_ERROR
            "REACT_SIMD=${SIMD} lane engine diverged from the golden "
            "fixture ${GOLDEN}\n${diff_text}\n"
            "The lane kernels are bit-exact by contract; do NOT regenerate "
            "the fixture -- find the divergent operation "
            "(tests/test_batch_stepper.cc's shrinker will localize it).")
    endif()
    message(FATAL_ERROR
        "golden mismatch vs ${GOLDEN}\n${diff_text}\n"
        "If the change is intentional, regenerate the fixture with:\n"
        "  ${BENCH} --csv ${GOLDEN}")
endif()
