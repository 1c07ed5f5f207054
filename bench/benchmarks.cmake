# One binary per paper figure/experiment plus ablations and microbenches.
# Included from the top-level CMakeLists (not add_subdirectory) so that
# ${CMAKE_BINARY_DIR}/bench contains ONLY the bench executables:
#   for b in build/bench/*; do $b; done
function(agentloc_add_bench target source)
  add_executable(${target} ${CMAKE_SOURCE_DIR}/bench/${source})
  target_link_libraries(${target} PRIVATE ${ARGN})
  set_target_properties(${target} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

agentloc_add_bench(bench_figures_1_to_6 bench_figures_1_to_6.cpp agentloc_hashtree)
agentloc_add_bench(bench_experiment1 bench_experiment1.cpp agentloc_workload)
agentloc_add_bench(bench_experiment2 bench_experiment2.cpp agentloc_workload)

agentloc_add_bench(bench_hashtree_micro bench_hashtree_micro.cpp agentloc_hashtree)
target_link_libraries(bench_hashtree_micro PRIVATE benchmark::benchmark)

agentloc_add_bench(bench_rehash_micro bench_rehash_micro.cpp agentloc_hashtree)
target_link_libraries(bench_rehash_micro PRIVATE benchmark::benchmark)

agentloc_add_bench(bench_sim_micro bench_sim_micro.cpp agentloc_sim)
target_link_libraries(bench_sim_micro PRIVATE benchmark::benchmark)

agentloc_add_bench(bench_platform_micro bench_platform_micro.cpp agentloc_core)
target_link_libraries(bench_platform_micro PRIVATE benchmark::benchmark)

agentloc_add_bench(bench_ablation_thresholds bench_ablation_thresholds.cpp agentloc_workload)
agentloc_add_bench(bench_ablation_schemes bench_ablation_schemes.cpp agentloc_workload)
agentloc_add_bench(bench_ablation_staleness bench_ablation_staleness.cpp agentloc_workload)
agentloc_add_bench(bench_adaptation bench_adaptation.cpp agentloc_workload)
agentloc_add_bench(bench_ablation_locality bench_ablation_locality.cpp agentloc_workload)
agentloc_add_bench(bench_ablation_ids bench_ablation_ids.cpp agentloc_workload)
agentloc_add_bench(bench_ablation_batching bench_ablation_batching.cpp agentloc_workload)
agentloc_add_bench(bench_ablation_cache bench_ablation_cache.cpp agentloc_workload)
agentloc_add_bench(bench_scale bench_scale.cpp agentloc_workload)
agentloc_add_bench(bench_overhead bench_overhead.cpp agentloc_workload)
agentloc_add_bench(bench_failover bench_failover.cpp agentloc_workload)
agentloc_add_bench(bench_watch bench_watch.cpp agentloc_workload)
agentloc_add_bench(bench_transport bench_transport.cpp agentloc_net)
