# Figure-driver determinism golden test (ctest target `golden_csv`).
#
# Runs fig3, fig4, fig7, fig_recovery and the ISP ablation at a fixed seed with small, CI-sized
# parameters and byte-compares the emitted CSVs against the goldens committed
# under tests/golden/.  This promotes the CI determinism smoke into something a
# developer runs locally with plain ctest: any change to ISP, the LP stack,
# the scenario engine, the recovery timeline or the RNG seeding that shifts a
# repair count by one fails here before it reaches review.
#
# Notes on the pinned flags:
#   * fig3 and fig4 run with --opt-seconds 0 so OPT uses its deterministic
#     fallback instead of a wall-clock-budgeted MILP; fig4 covers SRT, GRD-COM,
#     GRD-NC, OPT's Steiner path and OPT's local-search fallback;
#   * fig4 compares the total and satisfied series, and the ablation (one
#     column per IspOptions ablation knob) compares its repairs series;
#   * fig7 compares only the repairs series — its time series measures real
#     wall clock and is inherently machine-dependent;
#   * fig_recovery's --json goes to the scratch directory and is not
#     compared;
#   * --threads values are part of the determinism claim: a fixed seed must
#     give identical CSVs at any thread count.  So fig7 also runs at
#     --threads 4 and at --solve-threads 4 (the intra-solve fan-outs merge
#     per-task slots serially in fixed order), and fig_recovery also at
#     --threads 1; each of those outputs is compared with the same golden.
#
# Invoked as:
#   cmake -DFIG3=<bench_fig3 binary> -DFIG4=<bench_fig4 binary>
#         -DFIG7=<bench_fig7 binary> -DFIG_RECOVERY=<bench_fig_recovery binary>
#         -DABLATION=<bench_ablation_isp binary>
#         -DGOLDEN_DIR=<repo>/tests/golden -DWORK_DIR=<scratch>
#         -P golden_csv.cmake
#
# Regenerating goldens after an *intentional* behaviour change:
#   <build>/bench_fig3_multicommodity --runs 2 --flows 4,8 --samples 3 \
#     --opt-seconds 0 --threads 2 --csv tests/golden/fig3
#   <build>/bench_fig4_demand_pairs --runs 2 --pairs-max 5 --opt-seconds 0 \
#     --threads 2 --csv tests/golden/fig4
#   (then delete the regenerated fig4.edges.csv and fig4.nodes.csv; only
#   total and satisfied are golden)
#   <build>/bench_fig7_er_scalability --runs 1 --probabilities 0.1,0.3 \
#     --threads 1 --csv tests/golden/fig7
#   (then delete the regenerated fig7.time.csv; only repairs is golden)
#   <build>/bench_fig_recovery --runs 2 --nodes 60 --max-stages 16 \
#     --threads 4 --csv tests/golden/fig_recovery
#   <build>/bench_ablation_isp --runs 2 --pairs-max 4 --threads 2 \
#     --csv tests/golden/ablation
#   (then delete the regenerated ablation.satisfied.csv; only repairs is
#   golden)

foreach(var FIG3 FIG4 FIG7 FIG_RECOVERY ABLATION GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "golden_csv: -D${var}=... is required")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_driver label)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "golden_csv: ${label} driver failed (${status})")
  endif()
endfunction()

run_driver(fig3 "${FIG3}" --runs 2 --flows 4,8 --samples 3 --opt-seconds 0
           --threads 2 --csv "${WORK_DIR}/fig3")
run_driver(fig4 "${FIG4}" --runs 2 --pairs-max 5 --opt-seconds 0 --threads 2
           --csv "${WORK_DIR}/fig4")
run_driver(fig7 "${FIG7}" --runs 1 --probabilities 0.1,0.3 --threads 1
           --csv "${WORK_DIR}/fig7")
run_driver("fig7 --threads 4" "${FIG7}" --runs 1 --probabilities 0.1,0.3
           --threads 4 --csv "${WORK_DIR}/fig7_threads4")
run_driver("fig7 --solve-threads 4" "${FIG7}" --runs 1
           --probabilities 0.1,0.3 --threads 1 --solve-threads 4
           --csv "${WORK_DIR}/fig7_solve4")
run_driver(fig_recovery "${FIG_RECOVERY}" --runs 2 --nodes 60 --max-stages 16
           --threads 4 --csv "${WORK_DIR}/fig_recovery"
           --json "${WORK_DIR}/fig_recovery.json")
run_driver("fig_recovery --threads 1" "${FIG_RECOVERY}" --runs 2 --nodes 60
           --max-stages 16 --threads 1 --csv "${WORK_DIR}/fig_recovery_threads1"
           --json "${WORK_DIR}/fig_recovery_threads1.json")
run_driver(ablation "${ABLATION}" --runs 2 --pairs-max 4 --threads 2
           --csv "${WORK_DIR}/ablation")

# Each entry is <output>=<golden>: the runs at other thread counts compare
# against the goldens of the pinned run.
set(pairs fig3.csv=fig3.csv fig4.total.csv=fig4.total.csv
          fig4.satisfied.csv=fig4.satisfied.csv
          fig7.repairs.csv=fig7.repairs.csv
          fig7_threads4.repairs.csv=fig7.repairs.csv
          fig7_solve4.repairs.csv=fig7.repairs.csv
          ablation.repairs.csv=ablation.repairs.csv)
foreach(run fig_recovery fig_recovery_threads1)
  foreach(series er.auc er.final bell_canada.auc bell_canada.final)
    list(APPEND pairs ${run}.${series}.csv=fig_recovery.${series}.csv)
  endforeach()
endforeach()

foreach(pair IN LISTS pairs)
  string(REPLACE "=" ";" files "${pair}")
  list(GET files 0 output)
  list(GET files 1 golden)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/${output}" "${GOLDEN_DIR}/${golden}"
    RESULT_VARIABLE diff_status)
  if(NOT diff_status EQUAL 0)
    file(READ "${WORK_DIR}/${output}" actual)
    file(READ "${GOLDEN_DIR}/${golden}" expected)
    message(FATAL_ERROR
      "golden_csv: ${output} diverged from the committed golden.\n"
      "--- expected (${GOLDEN_DIR}/${golden}):\n${expected}\n"
      "--- actual (${WORK_DIR}/${output}):\n${actual}\n"
      "If the change is intentional, regenerate the goldens (see the header "
      "of tests/golden_csv.cmake).")
  endif()
endforeach()

message(STATUS
  "golden_csv: fig3, fig4, fig7, fig_recovery and ablation CSVs match the "
  "goldens, fig7 and fig_recovery also at other thread counts")
