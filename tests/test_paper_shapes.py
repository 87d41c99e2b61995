"""The paper's headline shapes, asserted on one registry sweep.

Every test reads the session-scoped ``registry_results`` fixture
(``tests/conftest.py``): the whole experiment registry runs once per
session through the engine, and the same results feed the
EXPERIMENTS.md report test.  Each test pins one paper artifact (table,
figure or claim) -- who wins, by roughly what factor, where crossovers
fall -- against the bounds EXPERIMENTS.md reports.
"""


def test_table1(registry_results):
    """E-T1: Table 1 (published devices vs ITRS)."""
    result = registry_results["E-T1"]
    rows = result["rows"]
    # Six published devices plus three ITRS rows, as printed.
    assert len(rows) == 9
    published = [row for row in rows if row["ref"] != "ITRS"]
    assert len(published) == 6
    # The paper's headline: no sub-1 V device meets the ITRS Ion target.
    assert result["summary"]["sub_1v_devices_meeting_itrs_ion"] == 0
    # And the 1.2 V fallback costs 78 % dynamic power.
    assert abs(result["summary"]["dynamic_power_penalty_at_1v2"]
               - 0.78) < 0.01


def test_table2(registry_results):
    """E-T2: Table 2 (analytical Ioff scaling)."""
    result = registry_results["E-T2"]
    rows = {row["node_nm"]: row for row in result["rows"]}

    # Solved Vth reproduces the paper's threshold row within 15 mV.
    for node_nm, row in rows.items():
        assert abs(row["vth_v"] - row["vth_paper_v"]) < 0.015, node_nm

    # Ioff reproduces the paper's row within 25 % at every node.
    for node_nm, row in rows.items():
        ratio = row["ioff_na_um"] / row["ioff_paper_na_um"]
        assert 0.75 < ratio < 1.25, node_nm

    summary = result["summary"]
    # Paper: 152x model increase vs 23x ITRS; >= 2.9x over ITRS at 35 nm.
    assert 120 < summary["model_ioff_increase_180_to_35"] < 220
    assert 20 < summary["itrs_ioff_increase_180_to_35"] < 26
    assert 2.5 < summary["model_over_itrs_at_35nm"] < 3.6
    # Metal gate cuts Ioff by ~78 % at 35 nm.
    assert 0.70 < summary["metal_gate_ioff_reduction_at_35nm"] < 0.90

    # The 0.7 V fallback at 50 nm: several-x Ioff relief, +36 % dynamic.
    variant = result["variant_50nm_0v7"]
    assert variant["ioff_relief_vs_0v6"] > 5.0
    assert abs(variant["dynamic_power_penalty"] - 0.36) < 0.01


def test_figure1(registry_results):
    """E-F1: Fig. 1 (Pstatic/Pdynamic vs activity)."""
    result = registry_results["E-F1"]
    series = result["series"]
    assert set(series) == {"70nm@0.9V", "50nm@0.7V", "50nm@0.6V"}

    # Each curve falls monotonically with activity (ratio ~ 1/alpha).
    for curve in series.values():
        ratios = [ratio for _, ratio in curve]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    # Paper: in the 0.01-0.1 activity range static power approaches and
    # can exceed 10 % of dynamic at the nanometer nodes.
    summary = result["summary"]
    assert summary["ratio_50nm_0v6_at_0p1"] > 0.10
    # The 0.6 V / 50 nm curve is the leakiest by far.
    assert (summary["ratio_50nm_0v6_at_0p1"]
            > 3 * summary["ratio_50nm_0v7_at_0p1"])
    assert (summary["ratio_50nm_0v6_at_0p1"]
            > 3 * summary["ratio_70nm_0v9_at_0p1"])


def test_figure2(registry_results):
    """E-F2: Fig. 2 (dual-Vth scaling)."""
    result = registry_results["E-F2"]
    rows = result["rows"]
    gains = [row["ion_gain_pct"] for row in rows]
    penalties = [row["ioff_penalty_for_20pct_ion"] for row in rows]

    # Ion gain from a 100 mV Vth cut grows monotonically with scaling.
    assert all(a < b for a, b in zip(gains, gains[1:]))
    # The Ioff penalty for +20 % Ion falls monotonically with scaling.
    assert all(a > b for a, b in zip(penalties, penalties[1:]))

    summary = result["summary"]
    # 35 nm endpoint lands near the paper's 7x (we measure ~8.4x).
    assert 5.0 < summary["penalty_at_35nm"] < 15.0
    # The old-node penalty is far larger (paper: 54x; the compact model
    # is more velocity-saturated at 1.8 V and lands higher -- see
    # EXPERIMENTS.md), so the scalability argument holds a fortiori.
    assert summary["penalty_at_180nm"] > 25.0
    # A fixed 100 mV reduction always costs ~15x in Ioff.
    assert abs(rows[0]["ioff_ratio_100mv"] - 15.0) < 0.5


def test_figure3(registry_results):
    """E-F3: Fig. 3 (delay vs Vdd, three Vth policies)."""
    result = registry_results["E-F3"]
    summary = result["summary"]

    # Paper: 3.7x at 0.2 V constant Vth (we land 3.4-3.9).
    assert 3.0 < summary["delay_constant_vth_at_0v2"] < 4.2
    # Paper: < 30 % with constant-Pstatic Vth scaling.
    assert summary["delay_constant_pstatic_at_0v2"] < 1.32
    # Paper: dynamic power 89 % lower at 0.2 V.
    assert abs(summary["dynamic_saving_at_0v2"] - 0.89) < 0.01
    # Paper: conservative policy leaves Pstatic at exactly 1/3.
    assert abs(summary["conservative_pstatic_at_0v2"] - 1 / 3) < 0.01

    # Policy ordering at every supply: constant >= conservative >=
    # constant-Pstatic in delay; the reverse in static power.
    curves = result["curves"]
    for fast, slow in (("constant_pstatic", "conservative"),
                       ("conservative", "constant")):
        for p_fast, p_slow in zip(curves[fast], curves[slow]):
            assert p_fast["delay_norm"] <= p_slow["delay_norm"] + 1e-9
            assert (p_fast["static_power_norm"]
                    >= p_slow["static_power_norm"] - 1e-9)


def test_figure4(registry_results):
    """E-F4: Fig. 4 (Pdynamic/Pstatic vs Vdd)."""
    result = registry_results["E-F4"]
    summary = result["summary"]

    # Paper: the ITRS 10x constraint allows Vdd ~ 0.44 V, a ~46 %
    # dynamic-power saving (we land 0.45 V / 44 %).
    assert 0.40 < summary["vdd_at_ratio_10"] < 0.50
    assert 0.35 < summary["dynamic_saving_at_ratio_10"] < 0.55

    # Paper: the ratio is "pushed towards 1" at 0.2 V for low switching
    # activity gates under the constant-Pstatic policy.
    assert summary["ratio_constant_pstatic_at_0v2"] < 5.0

    # Under constant Pstatic the ratio falls monotonically with Vdd.
    curve = result["curves"]["constant_pstatic"]
    ratios = [point["dyn_over_static"] for point in curve]
    assert all(a < b for a, b in zip(ratios, ratios[1:]))


def test_figure5(registry_results):
    """E-F5: Fig. 5 (IR-drop rail sizing)."""
    result = registry_results["E-F5"]
    summary = result["summary"]

    # Paper: ~16x minimum width at 35 nm under minimum bump pitch.
    assert 8.0 < summary["min_pitch_width_over_min_at_35nm"] < 25.0
    # Paper: 35 nm is *less* restricted than 50 nm (power density falls).
    assert (summary["min_pitch_width_over_min_at_50nm"]
            > summary["min_pitch_width_over_min_at_35nm"])
    # Paper: rails consume 17-20 % of top-level routing with pads.
    assert 0.16 < summary["min_pitch_routing_at_35nm"] < 0.25

    # Paper: ITRS pad counts blow the requirement up to >1000x minimum
    # width (the paper reads "over 2000x" off its log axis).
    assert summary["itrs_width_over_min_at_35nm"] > 500.0

    # Both curves grow (roughly quadratically) toward the nanometer
    # nodes, apart from the 50->35 nm density dip.
    for scenario in ("min_pitch", "itrs_pads"):
        widths = [point["width_over_min"]
                  for point in result["curves"][scenario]]
        assert all(a < b for a, b in zip(widths[:-1], widths[1:-1]))


def test_thermal_claims(registry_results):
    """E-C1: the Section 2.1 thermal-management claims."""
    result = registry_results["E-C1"]

    # DTM buys a 33 % higher theta_ja (1/0.75).
    assert abs(result["theta_relief"] - 1 / 3) < 0.01
    # The 65 -> 75 W cooling-cost cliff triples cost.
    assert abs(result["cooling_cost_ratio_75_over_65"] - 3.0) < 0.01

    limit = result["tj_limit_c"]
    # A DTM-protected chip on an effective-worst-case package holds Tj.
    assert result["virus_dtm_max_tj_c"] <= limit + 0.5
    # The same package without DTM violates under the virus.
    assert result["virus_unmanaged_max_tj_c"] > limit + 1.0
    # Realistic applications run (essentially) unthrottled.
    assert result["app_dtm_throughput"] > 0.97
    # The virus pays a bounded throughput tax instead of overheating.
    assert 0.5 <= result["virus_dtm_throughput"] < 1.0


def test_signaling_claims(registry_results):
    """E-C2: the Section 2.2 global-signaling claims."""
    result = registry_results["E-C2"]

    # Paper: ~1e4 repeaters in a large 180 nm MPU, nearly 1e6 at 50 nm.
    assert 5e3 < result["repeater_count_180nm"] < 3e4
    assert 5e5 < result["repeater_count_50nm"] < 3e6
    # Paper: >50 W of signaling power in the nanometer regime.
    assert result["signaling_power_50nm_w"] > 50.0
    # Low-swing differential: ~80 % bus-energy saving at 10 % swing,
    # several-x smaller supply transients, and nowhere near 2x area.
    assert 0.7 < result["low_swing_energy_saving"] < 0.95
    assert result["low_swing_transient_reduction"] > 3.0
    assert result["low_swing_area_ratio"] < 1.5
    # Footnote 2: cluster power density "can exceed 100 W/cm^2", at a
    # small quantisation delay cost.
    assert result["cluster_power_density_w_cm2"] > 100.0
    assert result["cluster_delay_penalty"] < 0.10


def test_cvs_claims(registry_results):
    """E-C3: the Section 2.4 clustered-voltage-scaling claims."""
    result = registry_results["E-C3"]

    # Paper: ~75 % of gates tolerate Vdd,l on slack-rich designs.
    assert result["low_vdd_fraction"] > 0.65
    # Paper: 45-50 % dynamic saving; our load-weighted netlists land at
    # ~35 % (the paper's arithmetic assumes uniform per-gate power --
    # see EXPERIMENTS.md).  Assert the saving is substantial and the
    # level-conversion overhead sits in the paper's 8-10 % band.
    assert result["dynamic_saving"] > 0.28
    assert 0.06 < result["lc_power_fraction"] < 0.12
    assert abs(result["vdd_ratio"] - 0.65) < 1e-9
    # Ref [18]'s placement/converter/grid area overhead: ~15 %.
    assert 0.10 < result["area_overhead"] < 0.25


def test_dual_vth_claims(registry_results):
    """E-C4: the Section 3.2.2 dual-Vth assignment claims."""
    result = registry_results["E-C4"]

    # Paper band: 40-80 % leakage reduction across benchmarks; our three
    # slack scenarios span 65-86 %, overlapping the band's upper half.
    assert result["leakage_saving_min"] > 0.40
    assert result["leakage_saving_max"] < 0.95
    assert (result["saving_tight"] < result["saving_area_recovered"]
            <= result["saving_slack_rich"] + 1e-9)
    # "Minimal penalty in critical path delay".
    assert result["worst_delay_penalty"] < 0.03


def test_resizing_claims(registry_results):
    """E-C5: the Section 3.3 re-sizing-vs-Vdd claims."""
    result = registry_results["E-C5"]

    # Re-sizing is sublinear: power saving well below the width saving.
    assert result["sizing_sublinearity"] < 0.75
    assert result["sizing_width_saving"] > result["sizing_dynamic_saving"]
    # Multi-Vdd beats re-sizing on the same design (quadratic vs
    # sublinear).
    assert result["cvs_dynamic_saving"] > result["sizing_dynamic_saving"]
    # Re-sizing first destroys a large part of the multi-Vdd population.
    assert (result["cvs_first_low_vdd_fraction"]
            - result["cvs_after_sizing_low_vdd_fraction"]) > 0.10
    # The combined Conclusion-3 flow compounds the savings.
    assert result["combined_total_saving"] > result["cvs_dynamic_saving"]
    assert result["combined_static_saving"] > 0.5


def test_pdn_claims(registry_results):
    """E-C6: the Section 4 bump/transient/MCML claims."""
    result = registry_results["E-C6"]

    # Paper: ~300 A worst-case supply current at 35 nm; 1500 Vdd bumps.
    assert abs(result["supply_current_35nm_a"] - 300.0) < 15.0
    assert abs(result["vdd_pads_35nm"] - 1500.0) < 30.0
    # Paper: ITRS bump current capability is incompatible with 300 A.
    assert result["itrs_budget_feasible"] == 0.0
    assert result["per_bump_current_a"] > result["bump_limit_a"]
    assert result["vdd_bump_shortfall"] > 0
    # Paper: a roughly constant ~350 um effective pitch (356 at 35 nm).
    assert abs(result["effective_pitch_um"] - 356.0) < 1.0
    # Minimum bump pitch gives a much lower-inductance wake-up path.
    assert result["wakeup_improvement"] > 5.0
    assert (result["wakeup_droop_min_pitch"]
            < result["wakeup_droop_itrs"])
    # MCML draws a several-x smaller peak supply current.
    assert result["mcml_transient_advantage"] > 2.0


def test_library_claims(registry_results):
    """E-C7: the Section 2.3 library / cell-generation claims."""
    result = registry_results["E-C7"]

    # The default library carries the richness the paper cites: 16
    # inverter sizes and 11 2-input NANDs.
    assert result["inverter_drive_strengths"] == 16.0
    assert result["nand2_drive_strengths"] == 11.0
    # On-the-fly cell generation on top of that library saves power at
    # fixed timing (paper: 15-22 %; our already-ideal baseline mapping
    # leaves ~10-12 % -- see EXPERIMENTS.md).
    assert result["cellgen_power_saving"] > 0.08


def test_grid_validation(registry_results):
    """E-V1: the analytic IR model against the grid solvers."""
    result = registry_results["E-V1"]

    # The 1-D distributed-drop formula matches the strip solver exactly.
    assert result["strip_error"] < 0.02
    # The realistic 2-D mesh (only every 4th rail reaches a bump) lands
    # within the crowding allowance's neighbourhood of the analytic
    # bound -- the analytic model captures the scaling, the constant is
    # absorbed by the calibrated CROWDING_FACTOR (see EXPERIMENTS.md).
    assert 1.0 < result["grid_margin"] < 3.0


def test_scaling_snapshot_mesh(registry_results):
    """E-S1: the large cells=8, rails=8 mesh behind ``repro bench``."""
    result = registry_results["E-S1"]
    assert result["n_nodes"] == 4144
    assert result["worst_drop_v"] > result["mean_drop_v"] > 0


def test_scaling_snapshot_sta(registry_results):
    """E-S2: the 4000-gate STA artifact behind ``repro bench``."""
    result = registry_results["E-S2"]
    assert result["n_gates"] == 4000
    assert result["meets_timing"]


def test_leakage_toolbox(registry_results):
    """E-X1: MTCMOS, body bias and mixed-Vth stacks."""
    result = registry_results["E-X1"]
    # MTCMOS: large standby reduction for a bounded delay penalty.
    assert result["mtcmos_standby_reduction"] > 50.0
    assert result["mtcmos_delay_penalty"] <= 0.05 + 1e-9
    # Body bias fades with scaling (the paper's caveat).
    assert result["body_bias_reduction_180nm"] \
        > 10 * result["body_bias_reduction_35nm"]
    # Mixed-Vth stacks: substantial saving, minimal delay cost.
    assert result["stack_leakage_saving"] > 0.3
    assert result["stack_delay_penalty"] < 0.25


def test_dvs_vs_throttling(registry_results):
    """E-X2: DVS vs clock throttling under the same thermal limit."""
    result = registry_results["E-X2"]
    limit = result["tj_limit_c"]
    assert result["dvs_max_tj_c"] <= limit + 0.5
    assert result["throttling_max_tj_c"] <= limit + 0.5
    assert result["dvs_advantage"] > 0.02


def test_global_clock_domains(registry_results):
    """E-X3: global clock dividers across the roadmap."""
    summary = registry_results["E-X3"]["summary"]
    assert summary["divider_at_180nm"] == 1
    assert summary["divider_at_35nm"] >= 2
    assert summary["all_nodes_meet_itrs"]


def test_electrothermal(registry_results):
    """E-X4: leakage/temperature feedback and thermal runaway."""
    result = registry_results["E-X4"]
    # The 50 nm / Vth = 0.04 V point is electrothermally marginal on
    # the ITRS-target package; 70 nm is comfortable.
    assert result["leakage_fraction_50nm"] > 0.5
    assert result["leakage_fraction_70nm"] < 0.2
    assert result["runaway_theta_50nm"] < 2 * result["theta_ja"]
    assert result["runaway_theta_70nm"] > 2 * result["theta_ja"]
    # Self-heating amplifies every node's leakage vs the 300 K numbers.
    for node in (70, 50, 35):
        assert result[f"amplification_{node}nm"] > 2.0


def test_wakeup_droop_cosim(registry_results):
    """E-ET1: closed-loop wake-up droop vs the analytic L di/dt."""
    result = registry_results["E-ET1"]
    # Acceptance criterion: closed-form L di/dt agreement within 5 %.
    assert result["max_abs_rel_error"] <= 0.05
    assert result["within_5pct"] == 1.0


def test_dtm_virus_cosim(registry_results):
    """E-ET2: electrothermal co-simulation of the DTM policies."""
    result = registry_results["E-ET2"]
    # Unmanaged violates; every DTM policy holds the junction with a
    # bounded throughput loss and a clean supply.
    assert result["unmanaged_violation"] == 1.0
    assert result["any_managed_violation"] == 0.0
    assert 0.5 <= result["min_throughput_fraction"] < 1.0


def test_emergency_droop_scaling(registry_results):
    """E-ET4: emergency droop and the decap lever."""
    result = registry_results["E-ET4"]
    assert result["within_5pct"] == 1.0
    # the quadratic decap lever: droop halves per 4x decap
    assert abs(result["decap_x0.25_droop_v"]
               / result["decap_x1_droop_v"] - 2.0) < 0.05
