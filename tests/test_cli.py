"""CLI commands (small in-process runs)."""

import pytest

from repro.cli import build_parser, main

from test_shard import write_csv_study_with_bad_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


SMALL = ["--users", "2", "--days", "5", "--seed", "3"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_lab_command(capsys):
    code, out = run(capsys, "lab")
    assert code == 0
    assert "chrome" in out
    assert "push library" in out


def test_generate_and_reload(tmp_path, capsys):
    out_file = str(tmp_path / "study.npz")
    code, out = run(capsys, "generate", *SMALL, "--out", out_file)
    assert code == 0
    assert "wrote" in out
    code, out = run(capsys, "figure", "1", "--dataset", out_file)
    assert code == 0
    assert "Figure 1" in out


def test_figure_commands(capsys):
    for number, marker in [("1", "Figure 1"), ("3", "Figure 3"), ("6", "Figure 6")]:
        code, out = run(capsys, "figure", number, *SMALL)
        assert code == 0
        assert marker in out


def test_figure_5_for_app(capsys):
    code, out = run(capsys, "figure", "5", "--app", "com.android.chrome", *SMALL)
    assert code == 0
    assert "Figure 5" in out


def test_table_1(capsys):
    code, out = run(capsys, "table", "1", *SMALL)
    assert code == 0
    assert "Table 1" in out


def test_whatif_command(capsys):
    code, out = run(capsys, "whatif", "--app", "com.sec.spp.push", *SMALL)
    assert code == 0
    assert "Table 2" in out
    assert "affected-days" in out


def test_recommend_command(capsys):
    code, out = run(capsys, "recommend", "--top", "5", *SMALL)
    assert code == 0
    assert "recommendation" in out


def test_longitudinal_command(capsys):
    code, out = run(capsys, "longitudinal", *SMALL)
    assert code == 0
    assert "Weekly background energy" in out
    assert "fluctuation" in out


def test_coalesce_command(capsys):
    code, out = run(capsys, "coalesce", "--period", "900", *SMALL)
    assert code == 0
    assert "energy saved" in out


def test_summary_command(capsys):
    code, out = run(capsys, "summary", *SMALL)
    assert code == 0
    assert "Per-user trace summary" in out
    assert "Traffic by app category" in out


def test_scenario_flag(capsys):
    code, out = run(capsys, "figure", "1", "--scenario", "smoke")
    assert code == 0
    assert "Figure 1" in out


def test_model_flag(capsys):
    code, out = run(capsys, "table", "1", "--model", "umts", *SMALL)
    assert code == 0
    assert "Table 1" in out


def test_import_command(tmp_path, capsys):
    packets = tmp_path / "p.csv"
    events = tmp_path / "e.csv"
    packets.write_text(
        "timestamp,size,direction,app,conn\n1.0,100,down,com.a,1\n"
    )
    events.write_text(
        "timestamp,kind,app,value\n0.5,process,com.a,foreground\n"
    )
    out_file = str(tmp_path / "imported.npz")
    code, out = run(capsys, "import", f"{packets}:{events}", "--out", out_file)
    assert code == 0
    assert "wrote" in out
    code, out = run(capsys, "figure", "1", "--dataset", out_file)
    assert code == 0


def test_app_command(capsys):
    code, out = run(capsys, "app", "--app", "com.sec.spp.push", *SMALL)
    assert code == 0
    assert "com.sec.spp.push" in out
    assert "recommendation:" in out


@pytest.fixture(scope="module")
def checkpointed(tmp_path_factory):
    """A saved study and a finished ingest checkpoint over it."""
    root = tmp_path_factory.mktemp("cli_ck")
    study = str(root / "study.npz")
    ck = str(root / "ck.npz")
    assert main(["generate", *SMALL, "--out", study]) == 0
    assert main(["ingest", "--dataset", study, "--checkpoint", ck]) == 0
    return study, ck


def test_from_checkpoint_byte_identical(checkpointed, capsys):
    study, ck = checkpointed
    capsys.readouterr()
    for batch_argv, ck_argv in [
        (["figure", "3", "--dataset", study], ["figure", "fig3", "--from-checkpoint", ck]),
        (["figure", "1", "--dataset", study], ["figure", "1", "--from-checkpoint", ck]),
        (["figure", "2", "--dataset", study], ["figure", "fig2", "--from-checkpoint", ck]),
        (["table", "1", "--dataset", study], ["table", "table1", "--from-checkpoint", ck]),
    ]:
        code, batch_out = run(capsys, *batch_argv)
        assert code == 0
        code, ck_out = run(capsys, *ck_argv)
        assert code == 0
        assert ck_out == batch_out


def test_headlines_from_checkpoint_match_batch_values(checkpointed, capsys):
    study, ck = checkpointed
    capsys.readouterr()
    code, batch_out = run(capsys, "headlines", "--dataset", study)
    assert code == 0
    code, ck_out = run(capsys, "headlines", "--from-checkpoint", ck)
    assert code == 0
    # The checkpoint renders the totals-tier headlines; each line must
    # appear in the batch output with the identical measured value
    # (column padding differs because batch has more rows).
    batch_lines = {" ".join(l.split()) for l in batch_out.splitlines()}
    ck_lines = [
        " ".join(l.split())
        for l in ck_out.splitlines()
        if "background states" in l
    ]
    assert len(ck_lines) == 2
    for line in ck_lines:
        assert line in batch_lines


def test_per_packet_figure_from_checkpoint_fails_typed(checkpointed, capsys):
    _, ck = checkpointed
    code = main(["figure", "4", "--from-checkpoint", ck])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "figure 4 needs per-packet arrays" in captured.err
    assert "without --from-checkpoint" in captured.err
    code = main(["table", "2", "--from-checkpoint", ck])
    captured = capsys.readouterr()
    assert code == 3
    assert "table 2 needs per-packet arrays" in captured.err


def test_whatif_from_checkpoint_fails_typed(checkpointed, capsys):
    """Counterfactual policies need packets; a totals checkpoint must
    refuse with the typed exit code, for the generic engine path too."""
    _, ck = checkpointed
    for argv in (
        ["whatif", "--from-checkpoint", ck],
        ["whatif", "--policy", "frequency-cap", "--from-checkpoint", ck],
        ["coalesce", "--from-checkpoint", ck],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "per-packet arrays" in captured.err
        assert "without --from-checkpoint" in captured.err


def test_whatif_policy_flag(capsys):
    code, out = run(
        capsys, "whatif", "--policy", "doze",
        "--param", "screen_off_threshold=1800", *SMALL,
    )
    assert code == 0
    assert "Policy doze(" in out
    assert "screen_off_threshold=1800" in out
    assert "energy saved" in out


def test_whatif_policy_with_app_detail(capsys):
    code, out = run(
        capsys, "whatif", "--policy", "deadline", "--app",
        "com.sec.spp.push", *SMALL,
    )
    assert code == 0
    assert "Policy deadline(" in out
    # Per-app columns use the last name component, like Table 2.
    assert "push" in out
    assert "packets delayed" in out


def test_whatif_rejects_bad_param(capsys):
    code = main(["whatif", "--policy", "kill", "--param", "bogus=1", *SMALL])
    captured = capsys.readouterr()
    assert code == 2
    assert "bogus" in captured.err


def test_table2_policy_flag_renders_end_to_end(capsys):
    code, out = run(
        capsys, "table", "2", "--policy", "kill", "--model", "nr", *SMALL
    )
    assert code == 0
    assert "Policy kill(" in out
    assert "on nr" in out
    assert "per-app effect" in out
    assert "energy saved" in out


def test_report_from_checkpoint_is_totals_tier(checkpointed, capsys):
    _, ck = checkpointed
    code, out = run(capsys, "report", "--from-checkpoint", ck)
    assert code == 0
    for marker in ("Figure 1", "Figure 2", "Figure 3", "Table 1"):
        assert marker in out
    assert "Figure 4" not in out
    assert "totals-tier report from checkpoint" in out


def test_report_is_its_commands_in_order(checkpointed, capsys):
    """A batch ``repro report`` prints what ``headlines``, ``figure 1``
    to ``6``, ``table 1`` and ``table 2`` print on the same study, in
    that order, one blank line apart."""
    study, _ = checkpointed
    capsys.readouterr()
    parts = []
    for argv in (
        ["headlines"],
        *(["figure", str(number)] for number in range(1, 7)),
        ["table", "1"],
        ["table", "2"],
    ):
        code, out = run(capsys, *argv, "--dataset", study)
        assert code == 0
        parts.append(out)
    code, out = run(capsys, "report", "--dataset", study)
    assert code == 0
    assert out == "\n".join(parts)


def test_report_from_checkpoint_is_its_commands_in_order(checkpointed, capsys):
    """``repro report --from-checkpoint`` prints what ``headlines``,
    ``figure 1`` to ``3`` and ``table 1`` print from the same checkpoint,
    in that order, one blank line apart, then the one-line totals-tier
    note."""
    _, ck = checkpointed
    capsys.readouterr()
    parts = []
    for argv in (
        ["headlines"],
        *(["figure", str(number)] for number in range(1, 4)),
        ["table", "1"],
    ):
        code, out = run(capsys, *argv, "--from-checkpoint", ck)
        assert code == 0
        parts.append(out)
    code, out = run(capsys, "report", "--from-checkpoint", ck)
    assert code == 0
    joined = "\n".join(parts)
    assert out.startswith(joined)
    note = out[len(joined):]
    assert note.startswith("\n(totals-tier report from checkpoint; ")
    assert note.endswith(")\n") and note.count("\n") == 2


def test_ingest_no_cadence_table1_fails_typed(tmp_path, capsys):
    study = str(tmp_path / "study.npz")
    ck = str(tmp_path / "ck.npz")
    assert main(["generate", *SMALL, "--out", study]) == 0
    assert main(
        ["ingest", "--dataset", study, "--checkpoint", ck, "--no-cadence"]
    ) == 0
    capsys.readouterr()
    code = main(["table", "1", "--from-checkpoint", ck])
    captured = capsys.readouterr()
    assert code == 3
    assert "cadence" in captured.err


#: (argv, option): each is a usage error naming the option, never a
#: traceback. ``{study}`` is a saved study, ``{ck}`` a temporary path.
BAD_NUMBERS = [
    (["generate", "--workers", "-1"], "--workers"),
    (["generate", "--users", "0"], "--users"),
    (["generate", "--days", "-1"], "--days"),
    (["figure", "3", "--dataset", "{study}", "--workers", "-3"], "--workers"),
    (
        ["report", "--dataset", "{study}", "--models", "lte,nr",
         "--workers", "-1"],
        "--workers",
    ),
    (["ingest", "--dataset", "{study}", "--workers", "-1"], "--workers"),
    (["ingest", "--dataset", "{study}", "--retries", "-1"], "--retries"),
    (
        ["ingest", "--dataset", "{study}", "--task-timeout", "0"],
        "--task-timeout",
    ),
    (["ingest", "--dataset", "{study}", "--chunk-size", "0"], "--chunk-size"),
    (
        ["ingest", "--dataset", "{study}", "--checkpoint-every", "-1",
         "--checkpoint", "{ck}"],
        "--checkpoint-every",
    ),
    (
        ["follow", "--drops", ".", "--checkpoint", "{ck}",
         "--chunk-size", "0"],
        "--chunk-size",
    ),
    (
        ["shard", "plan", "--dataset", "{study}", "--shards", "2",
         "--chunk-size", "0"],
        "--chunk-size",
    ),
    (["shard", "run", "plan.json", "--workers", "-1"], "--workers"),
    (["shard", "plan", "--dataset", "{study}", "--shards", "0"], "--shards"),
    (
        ["ingest", "--dataset", "{study}", "--shards", "-1",
         "--checkpoint", "{ck}"],
        "--shards",
    ),
    (
        ["ingest", "--dataset", "{study}", "--max-chunks", "0",
         "--checkpoint", "{ck}"],
        "--max-chunks",
    ),
    (["ingest", "--dataset", "{study}", "--top", "-1"], "--top"),
    (
        ["follow", "--drops", ".", "--checkpoint", "{ck}",
         "--max-pending", "0"],
        "--max-pending",
    ),
    (
        ["follow", "--drops", ".", "--checkpoint", "{ck}",
         "--poll-interval", "-1", "--idle-exit", "2"],
        "--poll-interval",
    ),
    (
        ["follow", "--drops", ".", "--checkpoint", "{ck}", "--top-n", "-2",
         "--idle-exit", "1"],
        "--top-n",
    ),
    (
        ["follow", "--drops", ".", "--checkpoint", "{ck}",
         "--max-polls", "0"],
        "--max-polls",
    ),
    (
        ["follow", "--drops", ".", "--checkpoint", "{ck}",
         "--idle-exit", "-1"],
        "--idle-exit",
    ),
]


#: Options that set up the shard pool, which an unsharded ingest lacks.
SHARD_POOL_OPTIONS = [
    ["--workers", "2"],
    ["--retries", "1"],
    ["--task-timeout", "5"],
]


@pytest.mark.parametrize(
    "option", SHARD_POOL_OPTIONS, ids=[o[0] for o in SHARD_POOL_OPTIONS]
)
def test_unsharded_ingest_rejects_shard_pool_options(
    checkpointed, tmp_path, capsys, option
):
    """An unsharded ingest runs in process: the pool options are a usage
    error naming ``--shards``, and with ``--shards`` over a two-process
    shard pool they run."""
    study, _ = checkpointed
    capsys.readouterr()
    ck = tmp_path / "c.npz"
    code = main(["ingest", "--dataset", study, "--checkpoint", str(ck), *option])
    err = capsys.readouterr().err
    assert code == 2
    assert "--shards" in err
    assert not ck.exists()
    code = main(
        ["ingest", "--dataset", study, "--checkpoint", str(ck),
         "--shards", "2", "--workers", "2", *option]
    )
    assert code == 0
    assert ck.exists()


@pytest.mark.parametrize(
    "workers",
    [["--workers", "1"], ["--workers", "http://127.0.0.1:9"]],
    ids=["one-process", "http"],
)
def test_task_timeout_needs_a_local_shard_pool(
    checkpointed, tmp_path, capsys, workers
):
    """Only a shard worker process can be timed out: ``--task-timeout``
    over a one-process pool or the http transport is a usage error,
    raised before any plan is written, never silently ignored."""
    study, _ = checkpointed
    capsys.readouterr()
    ck = tmp_path / "c.npz"
    code = main(
        ["ingest", "--dataset", study, "--checkpoint", str(ck),
         "--shards", "2", *workers, "--task-timeout", "5"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "timeout" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["ingest", "shard-run"])
def test_quarantine_needs_a_local_shard_pool(
    checkpointed, tmp_path, capsys, command
):
    """A ``repro shard worker`` runs its shards without user quarantine:
    ``--quarantine`` with a worker-URL pool is a usage error, raised
    before any plan or shard file is written, that names the plan
    option which quarantines malformed rows."""
    study, _ = checkpointed
    plan = tmp_path / "plan.json"
    assert main(
        ["shard", "plan", "--dataset", study, "--shards", "2",
         "--out", str(plan)]
    ) == 0
    capsys.readouterr()
    pool = ["--workers", "http://127.0.0.1:9", "--quarantine"]
    argv = {
        "ingest": ["ingest", "--dataset", study, "--checkpoint",
                   str(tmp_path / "c.npz"), "--shards", "2", *pool],
        "shard-run": ["shard", "run", str(plan), *pool],
    }[command]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "repro shard plan --quarantine" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [plan]


SHARDED_USAGE_ERRORS = [
    ([], "--shards needs --checkpoint FILE"),
    (
        ["--checkpoint", "c.npz", "--workers", "http://127.0.0.1:9",
         "--quarantine"],
        "repro shard plan --quarantine",
    ),
]


@pytest.mark.parametrize(
    "options, usage",
    SHARDED_USAGE_ERRORS,
    ids=["no-checkpoint", "http-quarantine"],
)
def test_sharded_usage_errors_come_before_the_input_is_read(
    tmp_path, capsys, monkeypatch, options, usage
):
    """A sharded ingest checks its options before it builds the chunk
    source, which over ``--user`` CSVs parses every row: over a packets
    CSV that does not exist, each usage error still exits 2 with its
    usage message, not a ``FileNotFoundError``."""
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "missing.csv"
    code = main(["ingest", "--user", str(missing), "--shards", "2", *options])
    err = capsys.readouterr().err
    assert code == 2
    assert usage in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, option",
    BAD_NUMBERS,
    ids=[f"{argv[0]} {option}" for argv, option in BAD_NUMBERS],
)
def test_invalid_numeric_option_is_usage_error(
    checkpointed, tmp_path, capsys, argv, option
):
    study, _ = checkpointed
    capsys.readouterr()
    argv = [arg.format(study=study, ck=tmp_path / "c.npz") for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert option in err
    assert "Traceback" not in err
    assert not (tmp_path / "c.npz").exists()


def test_cli_sharded_ingest_prints_quarantine_line(tmp_path, capsys):
    pairs = write_csv_study_with_bad_rows(tmp_path, bad_users={2})
    argv = ["ingest", "--quarantine"]
    for p, e in pairs:
        argv += ["--user", f"{p}:{e}"]
    for extra in ([], ["--shards", "3"]):
        ck = tmp_path / f"ck{len(extra)}.npz"
        assert main(argv + ["--checkpoint", str(ck), *extra]) == 0
        out = capsys.readouterr().out
        assert "quarantined: 1 malformed row(s), 0 user(s)" in out


def _imported_study_without_screen_events(tmp_path):
    """A 2-user x 2-day study imported from CSVs whose events files hold
    no screen rows: its registry names only the apps the files use."""
    from repro import StudyConfig, generate_study
    from repro.trace.io_text import write_events_csv, write_packets_csv

    dataset = generate_study(StudyConfig(n_users=2, duration_days=2.0, seed=3))
    pairs = []
    for trace in dataset:
        p = tmp_path / f"p{trace.user_id}.csv"
        e = tmp_path / f"e{trace.user_id}.csv"
        write_packets_csv(p, trace.packets, dataset.registry)
        write_events_csv(e, trace.events, dataset.registry)
        e.write_text(
            "".join(
                line
                for line in e.read_text().splitlines(keepends=True)
                if ",screen," not in line
            )
        )
        pairs.append(f"{p}:{e}")
    out_file = str(tmp_path / "s.npz")
    assert main(["import", *pairs, "--out", out_file]) == 0
    return out_file


def test_cli_policies_run_on_an_imported_study(tmp_path, capsys):
    """Policy tables break out only the Table 2 apps the study holds, and
    doze runs without screen events."""
    study = _imported_study_without_screen_events(tmp_path)
    capsys.readouterr()
    code, out = run(
        capsys, "whatif", "--policy", "doze",
        "--app", "com.android.chrome", "--dataset", study,
    )
    assert code == 0
    assert "packets dropped: 0 (0 bytes)" in out
    for argv in (
        ["whatif", "--policy", "push", "--dataset", study],
        ["table", "2", "--policy", "deadline", "--dataset", study],
    ):
        code, out = run(capsys, *argv)
        assert code == 0
        # Weibo never appears in these files; the accuweather widget does.
        assert "weibo" not in out and "accuweather" in out


@pytest.mark.parametrize(
    "argv",
    [["report"], ["table", "2"]],
    ids=["report", "table2"],
)
def test_table2_skips_apps_without_energy(argv, capsys):
    """Weibo has no energy in this small study; Table 2 breaks out only
    the apps that do, instead of failing on the first that does not."""
    code, out = run(capsys, *argv, "--users", "3", "--days", "5", "--seed", "17")
    assert code == 0
    assert "Table 2: preemptively killing idle background apps" in out
    assert "weibo" not in out.split("Table 2")[-1]


@pytest.mark.parametrize(
    "argv",
    [["report"], ["table", "2"]],
    ids=["report", "table2"],
)
def test_table2_runs_on_an_imported_study(argv, tmp_path, capsys):
    """An imported study registers only the apps its files name."""
    study = _imported_study_without_screen_events(tmp_path)
    capsys.readouterr()
    code, out = run(capsys, *argv, "--dataset", study)
    assert code == 0
    assert "Table 2" in out
