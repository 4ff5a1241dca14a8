# Checkpointed-rerun identity check, run as a ctest entry:
#
#   cmake -DBENCH=<bench binary> -DOUT=<scratch prefix>
#         -DCKPT_DIR=<scratch dir> -P checkpoint_rerun.cmake
#
# Runs the bench once without checkpointing, then twice under one fresh
# REACT_CHECKPOINT_DIR: the first checkpointed run writes every cell's
# snapshots, the second resumes every cell from its finished snapshot.
# All three stdouts must be byte-identical.  Cells that differ only in
# their fault plan (fault_sweep's severities) must neither share a
# snapshot file nor resume one another's.
if(NOT BENCH OR NOT OUT OR NOT CKPT_DIR)
    message(FATAL_ERROR
        "checkpoint_rerun.cmake needs -DBENCH, -DOUT, -DCKPT_DIR")
endif()

file(REMOVE_RECURSE ${CKPT_DIR})
file(MAKE_DIRECTORY ${CKPT_DIR})
unset(ENV{REACT_CHECKPOINT_DIR})

function(run_bench label)
    execute_process(
        COMMAND ${BENCH}
        RESULT_VARIABLE rc
        OUTPUT_FILE ${OUT}.${label}.txt
        ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${label} run exited with ${rc}:\n${err}")
    endif()
endfunction()

run_bench(plain)
set(ENV{REACT_CHECKPOINT_DIR} ${CKPT_DIR})
run_bench(fresh)
run_bench(resumed)

foreach(label fresh resumed)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}.plain.txt
                ${OUT}.${label}.txt
        RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
        execute_process(COMMAND diff -u ${OUT}.plain.txt ${OUT}.${label}.txt
                        OUTPUT_VARIABLE diff_text ERROR_QUIET)
        message(FATAL_ERROR
            "${label} checkpointed run differs from the plain run\n"
            "${diff_text}")
    endif()
endforeach()

file(REMOVE_RECURSE ${CKPT_DIR})
