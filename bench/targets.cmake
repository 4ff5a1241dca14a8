# Bench binaries land directly in ${CMAKE_BINARY_DIR}/bench so the
# reproduction driver can run `for b in build/bench/*; do $b; done`.
function(react_add_bench name)
    add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
    target_link_libraries(${name} PRIVATE react_harness)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

react_add_bench(fig1_static_tradeoff)
react_add_bench(sec2_volatility)
react_add_bench(fig5_reconfig_loss)
react_add_bench(fig6_characterization)
react_add_bench(sec51_overhead)
react_add_bench(table2_performance)
react_add_bench(table3_traces)
react_add_bench(table4_latency)
react_add_bench(table5_packet_forwarding)
react_add_bench(fig7_figure_of_merit)
react_add_bench(ablation_bank_size)
react_add_bench(ablation_last_level)
react_add_bench(ablation_diodes)
react_add_bench(ablation_polling)
react_add_bench(ablation_thresholds)
react_add_bench(ablation_frontend)
react_add_bench(ablation_dewdrop)
react_add_bench(fault_sweep)
react_add_bench(parallel_sweep)
react_add_bench(crash_fuzz)
react_add_bench(hot_loop)

# Serving-layer soak: crash_fuzz for reactd (seeded kills + faulty
# transport + drain, byte-identity verdict against direct runs).
react_add_bench(server_soak)
target_link_libraries(server_soak PRIVATE react_net)

# Google-benchmark microbenchmarks (simulator hot loop, AES kernel).
add_executable(micro_engine ${CMAKE_SOURCE_DIR}/bench/micro_engine.cc)
target_link_libraries(micro_engine PRIVATE react_harness benchmark::benchmark)
set_target_properties(micro_engine PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
