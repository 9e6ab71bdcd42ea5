"""Check that the tests catch a standing list of one-line bugs (mutants).

    python3 tools/mutants.py

Each entry of MUTANTS names a file under src/driftbeam, an exact string that
occurs once in it, its replacement, and the test ids that must all fail once
the replacement is made. The script first runs every listed test on a clean
copy of src/ and tests/, where they must pass. Then, for each mutant, it
makes a fresh copy in a temporary directory, applies the replacement there,
and runs pytest on that mutant's tests only. The working tree is never
changed.

Exit status 0 when every mutant is caught. 1 when a listed test fails on the
clean copy, a mutant survives (one of its tests passes), or a mutant's old
string no longer occurs exactly once: a change that moves the code updates
the entry.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ACCEPTANCE = "tests/test_acceptance.py::"

# (name, file, old, new, test ids that must fail)
MUTANTS = [
    ("ensemble weighted uniformly, not by frame counts", "covest.py",
     "            total = row.sum()\n",
     "            row = (row > 0).astype(np.int64)\n            total = row.sum()\n",
     ["tests/test_covest.py::TestTrain::test_ensemble_is_weighted_average"]),
    ("state-score ties go to the higher state", "covest.py",
     "    return StateSequence(np.argmin(scores, axis=1), len(templates))",
     "    return StateSequence(len(templates) - 1 - np.argmin(scores[:, ::-1], axis=1),"
     " len(templates))",
     ["tests/test_covest.py::TestEstimateStates::test_equal_templates_tie_to_the_lower_state"]),
    ("pilot snapshots not smoothed", "covest.py",
     "PILOT_SMOOTHING = 2", "PILOT_SMOOTHING = 0",
     ["tests/test_covest.py::TestEstimateStates::test_rotation_sweep_accuracy"]),
    ("source renders trained with the noise", "covest.py",
     "    sources = (render(noiseless, ", "    sources = (render(spec, ",
     ["tests/test_covest.py::TestCliTraining::test_static_cell_is_the_image_covariance",
      "tests/test_scene.py::TestRenderTransforms::test_cli_training_transforms_each_source_twice"]),
    ("rank-one mode takes the second eigenvector", "beamform.py",
     "    u = eigvecs[..., -1]", "    u = eigvecs[..., -2]",
     ["tests/test_beamform.py::TestBuild::"
      "test_rank_one_on_truly_rank_one_ensemble_matches_static"]),
    ("noise counted twice in mwf_weights", "beamform.py",
     "        total = noise.copy()", "        total = 2.0 * noise",
     [ACCEPTANCE + "test_c04_mwf_closed_form",
      "tests/test_beamform.py::TestMwfWeights::test_single_rank_one_source_in_white_noise"]),
    ("the unloaded solve skips the guard", "beamform.py",
     "        else:\n            check_condition(total, ",
     "        elif False:\n            check_condition(total, ",
     ["tests/test_beamform.py::TestMwfWeights::test_singular_total_rejected_with_bin_index"]),
    ("dynamic bank applies state 0 everywhere", "beamform.py",
     "        weights = bank.weights[int(state)].astype(x.dtype, copy=False)",
     "        weights = bank.weights[0].astype(x.dtype, copy=False)",
     [ACCEPTANCE + "test_c07_dynamic_beats_static",
      ACCEPTANCE + "test_c10_small_instance_brute_force"]),
    ("divergence_curve swaps gaussian_divergence's arguments", "evaluate.py",
     "            rows[group] = gaussian_divergence(r1, r2)",
     "            rows[group] = gaussian_divergence(r2, r1)",
     [ACCEPTANCE + "test_c06_divergence_trend"]),
    ("a column's pairs all use its first second slot", "evaluate.py",
     "            r2 = regularize(_slot_covariance(covs, slot2), epsilon_rel)",
     "            r2 = regularize(_slot_covariance(covs, pairs[0][1]), epsilon_rel)",
     ["tests/test_evaluate.py::TestDivergenceCurve::test_aggregate_is_mean_of_pairs"]),
    ("gain of source 0 only", "evaluate.py",
     "np.mean(10.0 * np.log10(num[:, ok] / den[:, ok]), axis=0)",
     "10.0 * np.log10(num[0, ok] / den[0, ok])",
     [ACCEPTANCE + "test_c10_small_instance_brute_force",
      "tests/test_evaluate.py::TestGainBlocks::test_equal_to_the_whole_array_formula"]),
    ("diagonal loading by tr instead of tr/M", "covmath.py",
     "epsilon_rel * tr / m, epsilon_rel)", "epsilon_rel * tr, epsilon_rel)",
     [ACCEPTANCE + "test_c08_full_rank_beats_rank_one",
      "tests/test_covmath.py::TestRegularize::test_identity_scaling"]),
    ("far-field divergence with half the exponent", "covmath.py",
     "    em1 = np.expm1((omega * sigma) ** 2)", "    em1 = np.expm1((omega * sigma) ** 2 / 2)",
     [ACCEPTANCE + "test_c01_closed_form_divergence_oracle",
      "tests/test_covmath.py::TestFarFieldDivergence::test_orthogonal_hand_value"]),
    ("far divergences always take the whitened-r1 eigensolve", "covmath.py",
     "_log_det(np.linalg.cholesky(r1_far))", "_log_det(np.linalg.cholesky(-r1_far))",
     ["tests/test_covmath.py::TestGaussianDivergence::test_far_matrices_take_no_second_eigensolve"]),
    ("an r1 without a Cholesky factor makes every far member infinite", "covmath.py",
     "            div[far] = 0.5 * np.sum(lam_far - log1p_lam, axis=-1)",
     "            div[far] = np.inf",
     ["tests/test_covmath.py::TestGaussianDivergence::test_indefinite_r1_gives_infinity"]),
    ("negative eigenvalues of the whitened r1 taken by magnitude", "covmath.py",
     "np.log(np.maximum(mu, 0.0))", "np.log(np.abs(mu))",
     ["tests/test_covmath.py::TestGaussianDivergence::test_indefinite_r1_gives_infinity"]),
    ("overlap-add overwrites instead of adding", "stft.py",
     "        out[start:start + cfg.fft_size] += segments[t]",
     "        out[start:start + cfg.fft_size] = segments[t]",
     [ACCEPTANCE + "test_c03_stft_perfect_reconstruction"]),
    ("perturbed covariance with half the exponent", "covmath.py",
     "    att = np.exp(-((omega * sigma) ** 2))", "    att = np.exp(-((omega * sigma) ** 2) / 2)",
     [ACCEPTANCE + "test_c02_perturbed_covariance_monte_carlo",
      "tests/test_scene.py::TestRender::test_jitter_ensemble_matches_perturbation_model"]),
    ("static image added at half amplitude", "scene.py",
     "                    block += np.multiply(spectrum, image,",
     "                    block += 0.5 * np.multiply(spectrum, image,",
     [ACCEPTANCE + "test_c05_scalar_wiener_baseline",
      "tests/test_scene.py::TestRender::test_single_noiseless_source_mixture_equals_image"]),
    ("one jitter offset for every frame", "scene.py",
     "        offsets = rng.standard_normal((t_count, spec.geometry.mic_count, 2))",
     "        offsets = rng.standard_normal((1, spec.geometry.mic_count, 2)).repeat(t_count, 0)",
     [ACCEPTANCE + "test_c09_monotonicity",
      "tests/test_scene.py::TestRender::test_jitter_ensemble_matches_perturbation_model"]),
    ("render noise seeded from the operating system", "scene.py",
     "np.random.SeedSequence(seed, spawn_key=(_NOISE_STREAM, t))",
     "np.random.SeedSequence(None, spawn_key=(_NOISE_STREAM, t))",
     [ACCEPTANCE + "test_c11_determinism",
      "tests/test_scene.py::TestRender::test_deterministic_under_seed"]),
    ("one stream for every frame", "scene.py",
     "spawn_key=(_NOISE_STREAM, t)))", "spawn_key=(_NOISE_STREAM,)))",
     ["tests/test_scene.py::TestRenderBlocks::test_noise_is_each_frame_drawn_from_its_own_stream"]),
    ("jittered reference microphone with jitter_reference false", "scene.py",
     "        if not motion.jitter_reference:\n            offsets[:, ref, :] = 0.0\n", "",
     ["tests/test_scene.py::TestRender::test_jitter_reference_sets_which_pairs_decorrelate"
      "[False]"]),
    ("the image helper fills the even blocks as well", "scene.py",
     "        for k in range(parity, len(starts), 2):",
     "        for k in range(parity, len(starts), 2 - parity):",
     ["tests/test_scene.py::TestRenderThreads::test_two_threads_equal_one_thread"]),
    ("steering phases of the opposite sign", "scene.py",
     "        tau = propagation_delays(positions, ",
     "        tau = -propagation_delays(positions, ",
     ["tests/test_scene.py::TestRender::test_single_noiseless_source_mixture_equals_image"]),
    ("training sums multiply complex64 frames", "covest.py",
     "    scratch = np.empty((2, 2, size), dtype=np.complex128)",
     "    scratch = np.empty((2, 2, size), dtype=frames.dtype)",
     ["tests/test_covest.py::TestOuterSumThreads::"
      "test_complex64_frames_sum_as_their_complex128_values"]),
    ("the second sum thread skips its chunks", "covest.py",
     "        for group, runs, bins in chunks[half::2]:",
     "        for group, runs, bins in chunks[half::2] if half == 0 else ():",
     ["tests/test_covest.py::TestOuterSumThreads::test_two_threads_equal_whole_group_products"]),
    ("unknown config keys ignored", "cli.py",
     "            unknown.add(dotted)", "            pass",
     ["tests/test_cli.py::TestConfig::test_unknown_keys_named_by_dotted_path",
      "tests/test_cli.py::TestMain::test_threads_key_rejected"]),
    ("a non-object config section taken as a leaf", "cli.py",
     "        if dotted in _SECTIONS:", "        if dotted in _SECTIONS and isinstance(value, dict):",
     ["tests/test_cli.py::TestConfig::test_section_error_then_unknown_keys_then_first_bad_kind",
      "tests/test_cli.py::TestMain::test_wrong_kind_names_its_key_before_any_work[pilot=False]"]),
    ("the container saved beside the test render", "cli.py",
     '        with stage("simulate"):\n'
     "            rendered = _test_render(config, _test_spec(config, wavs))\n"
     "        saving = Worker(_save_training, config, covs)\n",
     "        saving = Worker(_save_training, config, covs)\n"
     '        with stage("simulate"):\n'
     "            rendered = _test_render(config, _test_spec(config, wavs))\n",
     ["tests/test_cli.py::TestMain::test_container_save_starts_after_the_test_render"]),
    ("beamform makes the output directory before its render", "cli.py",
     "    rendered = _test_render(config, _test_spec(config, wavs))\n    # The manifest's",
     '    _output(config, "")\n'
     "    rendered = _test_render(config, _test_spec(config, wavs))\n    # The manifest's",
     ["tests/test_cli.py::TestMain::test_beamform_without_container_leaves_no_out_directory"]),
    ("the test scene ignores the source WAVs", "cli.py",
     "    return _scene_spec(config, wavs or scene.pseudorandom_signals(",
     "    return _scene_spec(config, scene.pseudorandom_signals(",
     ["tests/test_cli.py::TestSimulate::test_source_wavs_are_the_scene_signals"]),
    ("state_oracle ignored", "cli.py",
     '                states = rendered.truth_states if config["state_oracle"] else \\\n',
     "                states = rendered.truth_states if False else \\\n",
     ["tests/test_cli.py::TestMain::test_state_oracle_filters_with_the_true_state_track"]),
    ("beamform's manifest hashes the container again", "cli.py",
     "                   known={str(cov_path): hashing.join()})",
     "                   known={str(cov_path): hashing.join() and None})",
     ["tests/test_cli.py::TestMain::test_beamform_manifest_hashes_the_container_once"]),
    ("report merges gain CSVs on different frequency grids", "cli.py",
     '        elif not np.array_equal(rows["frequency_hz"], merged["frequency_hz"]):',
     "        elif False:",
     ["tests/test_cli.py::TestMain::test_report_rejects_gain_csvs_on_different_grids"]),
]


def copy_tree(dest):
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)


def run_tests(tree, ids):
    """Run pytest on ids in tree; returns (exit code, failed or errored node ids)."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
         *ids], cwd=tree, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1}
    return run.returncode, failed


def caught_by(test_id, failed):
    return any(node == test_id or node.startswith(test_id + "[") for node in failed)


def main():
    problems = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        ids = sorted({test_id for *_, tests in MUTANTS for test_id in tests})
        code, failed = run_tests(clean, ids)
        if code != 0:
            print(f"the listed tests do not all pass without a mutant (pytest exit {code}): "
                  f"{sorted(failed)}")
            return 1
        for k, (name, file, old, new, tests) in enumerate(MUTANTS):
            start = time.monotonic()
            tree = Path(tmp) / f"mutant_{k}"
            copy_tree(tree)
            path = tree / "src" / "driftbeam" / file
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                print(f"STALE     {name}: old string occurs {text.count(old)} times in {file}")
                problems += 1
                continue
            path.write_text(text.replace(old, new), encoding="utf-8")
            _, failed = run_tests(tree, tests)
            passed = [test_id for test_id in tests if not caught_by(test_id, failed)]
            elapsed = time.monotonic() - start
            if passed or not tests:
                print(f"SURVIVED  {name} ({elapsed:.0f} s): passing {passed}")
                problems += 1
            else:
                print(f"caught    {name} ({elapsed:.0f} s) by {', '.join(tests)}")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - problems} of {len(MUTANTS)} mutants caught")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
