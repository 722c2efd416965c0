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
#   * fig_recovery uses CI's recovery-smoke arguments; its --json goes to the
#     scratch directory and is not compared;
#   * --threads values are part of the determinism claim: a fixed seed must
#     give identical CSVs at any thread count.
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

execute_process(
  COMMAND "${FIG3}" --runs 2 --flows 4,8 --samples 3 --opt-seconds 0
          --threads 2 --csv "${WORK_DIR}/fig3"
  RESULT_VARIABLE fig3_status
  OUTPUT_QUIET)
if(NOT fig3_status EQUAL 0)
  message(FATAL_ERROR "golden_csv: fig3 driver failed (${fig3_status})")
endif()

execute_process(
  COMMAND "${FIG4}" --runs 2 --pairs-max 5 --opt-seconds 0 --threads 2
          --csv "${WORK_DIR}/fig4"
  RESULT_VARIABLE fig4_status
  OUTPUT_QUIET)
if(NOT fig4_status EQUAL 0)
  message(FATAL_ERROR "golden_csv: fig4 driver failed (${fig4_status})")
endif()

execute_process(
  COMMAND "${FIG7}" --runs 1 --probabilities 0.1,0.3 --threads 1
          --csv "${WORK_DIR}/fig7"
  RESULT_VARIABLE fig7_status
  OUTPUT_QUIET)
if(NOT fig7_status EQUAL 0)
  message(FATAL_ERROR "golden_csv: fig7 driver failed (${fig7_status})")
endif()

execute_process(
  COMMAND "${FIG_RECOVERY}" --runs 2 --nodes 60 --max-stages 16 --threads 4
          --csv "${WORK_DIR}/fig_recovery"
          --json "${WORK_DIR}/fig_recovery.json"
  RESULT_VARIABLE recovery_status
  OUTPUT_QUIET)
if(NOT recovery_status EQUAL 0)
  message(FATAL_ERROR
    "golden_csv: fig_recovery driver failed (${recovery_status})")
endif()

execute_process(
  COMMAND "${ABLATION}" --runs 2 --pairs-max 4 --threads 2
          --csv "${WORK_DIR}/ablation"
  RESULT_VARIABLE ablation_status
  OUTPUT_QUIET)
if(NOT ablation_status EQUAL 0)
  message(FATAL_ERROR
    "golden_csv: ablation driver failed (${ablation_status})")
endif()

foreach(pair "fig3.csv" "fig4.total.csv" "fig4.satisfied.csv"
             "fig7.repairs.csv"
             "fig_recovery.er.auc.csv" "fig_recovery.er.final.csv"
             "fig_recovery.bell_canada.auc.csv"
             "fig_recovery.bell_canada.final.csv"
             "ablation.repairs.csv")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORK_DIR}/${pair}" "${GOLDEN_DIR}/${pair}"
    RESULT_VARIABLE diff_status)
  if(NOT diff_status EQUAL 0)
    file(READ "${WORK_DIR}/${pair}" actual)
    file(READ "${GOLDEN_DIR}/${pair}" expected)
    message(FATAL_ERROR
      "golden_csv: ${pair} diverged from the committed golden.\n"
      "--- expected (${GOLDEN_DIR}/${pair}):\n${expected}\n"
      "--- actual (${WORK_DIR}/${pair}):\n${actual}\n"
      "If the change is intentional, regenerate the goldens (see the header "
      "of tests/golden_csv.cmake).")
  endif()
endforeach()

message(STATUS
  "golden_csv: fig3, fig4, fig7, fig_recovery and ablation CSVs match the goldens")
