//! End-to-end tests of the `pdatalog` binary.

use std::process::Command;

fn pdatalog() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pdatalog"))
}

/// `pdatalog <cmd> <file> <args, split on whitespace>`, run to completion.
fn cli(cmd: &str, file: impl AsRef<std::ffi::OsStr>, args: &str) -> std::process::Output {
    pdatalog().arg(cmd).arg(file).args(args.split_whitespace()).output().unwrap()
}

fn write_program(name: &str, source: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pdatalog-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, source).unwrap();
    path
}

const ANCESTOR: &str = "anc(X,Y) :- par(X,Y).\n\
                        anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
                        par(1,2). par(2,3). par(3,4).";

#[test]
fn run_sequential_prints_the_closure() {
    let file = write_program("seq.dl", ANCESTOR);
    let out = cli("run", &file, "");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("% anc/2: 6 tuples"), "{stdout}");
    assert!(stdout.contains("anc(1, 4)."));
    assert!(!stdout.contains("anc(4, 1)."));
}

#[test]
fn run_all_schemes_agree() {
    let file = write_program("schemes.dl", ANCESTOR);
    let mut outputs = Vec::new();
    for scheme in ["seq", "example1", "example2", "example3", "nocomm", "general"] {
        let out = cli("run", &file, &format!("--scheme {scheme} --workers 3"));
        assert!(
            out.status.success(),
            "scheme {scheme}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push((scheme, String::from_utf8(out.stdout).unwrap()));
    }
    let reference = outputs[0].1.clone();
    for (scheme, stdout) in &outputs[1..] {
        assert_eq!(stdout, &reference, "scheme {scheme} output differs");
    }
}

/// A reader that closes the pipe after the header ends the printing, not
/// the run: exit 0, silently, and `--stats` still writes its footer.
#[test]
fn a_closed_stdout_pipe_ends_the_printing_and_keeps_the_footer() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // 79 800 tuples, 1.2 MB of facts: far more than a pipe buffers.
    let facts: String = (1..400).map(|k| format!("par({k},{}).", k + 1)).collect();
    let file = write_program("closed_pipe.dl", &format!("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).\n{facts}"));
    let mut command = pdatalog();
    command.arg("run").arg(&file).args(["--print", "anc/2", "--stats"]);
    let mut child = command.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap();
    let mut header = String::new();
    // The reader, and with it the pipe's read end, is dropped on this line.
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut header).unwrap();
    assert_eq!(header, "% anc/2: 79800 tuples\n");
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.starts_with("% scheme=seq rounds="), "only the footer: {stderr}");
}

/// An input fact for a derived predicate is refused by every parallel
/// scheme — none of them seeds `t_in` from the database, so accepting it
/// would silently drop `anc(9,1)` from the answer `seq` gives.
#[test]
fn derived_predicate_facts_are_refused_by_every_parallel_scheme() {
    let file = write_program("derived-fact.dl", &format!("{ANCESTOR} anc(9,1)."));
    assert!(String::from_utf8(cli("run", &file, "").stdout).unwrap().contains("% anc/2: 7 tuples"));
    for scheme in ["example1", "example2", "example3", "nocomm", "general"] {
        let out = cli("run", &file, &format!("--scheme {scheme} --workers 2"));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(!out.status.success(), "{scheme} must fail");
        assert!(stderr.contains("input facts for derived predicate anc are not supported"), "{scheme}: {stderr}");
    }
}

/// §7 is for any program: a rule whose body is ground (`ok(1) :- flag(1).`)
/// takes the empty discriminating sequence, under `general` and under the
/// magic rewrite of a goal that demands it.
#[test]
fn ground_body_rules_run_under_general_and_query() {
    let source = "r(X,Y) :- e(X,Y), ok(1).\nr(X,Y) :- e(X,Z), r(Z,Y).\nok(1) :- flag(1).\n\
                  e(1,2). e(2,3). e(3,4). flag(1).";
    let file = write_program("ground-body.dl", source);
    for (query, tuples) in [("", "% r/2: 6 tuples"), ("--query r(1,Y)", "% r/2: 3 tuples")] {
        let seq = cli("run", &file, &format!("{query} --scheme seq"));
        let general = cli("run", &file, &format!("{query} --scheme general --workers 2"));
        assert!(general.status.success(), "{}", String::from_utf8_lossy(&general.stderr));
        assert!(String::from_utf8_lossy(&seq.stdout).contains(tuples));
        assert_eq!(general.stdout, seq.stdout, "{query}");
    }
}

#[test]
fn run_with_print_filter_and_stats() {
    let file = write_program("print.dl", ANCESTOR);
    let out = cli("run", &file, "--print anc/2 --stats --scheme example3");
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("processing_firings="), "{stderr}");
}

/// The footer ends with the process's minor page faults and resident
/// high-water mark, on the sequential line and the parallel line alike.
#[test]
fn the_stats_footer_reports_page_faults_and_the_resident_high_water_mark() {
    if !std::path::Path::new("/proc/self/stat").exists() {
        return;
    }
    let file = write_program("memory-fields.dl", ANCESTOR);
    for scheme in ["seq", "general --workers 2"] {
        let out = cli("run", &file, &format!("--scheme {scheme} --stats"));
        let stderr = String::from_utf8(out.stderr).unwrap();
        let footer = stderr.lines().find(|l| l.starts_with("% scheme=")).unwrap();
        let field = |name: &str| footer.split_whitespace().find_map(|f| f.strip_prefix(name)).unwrap_or_else(|| panic!("{name} in {footer}"));
        field("minflt=").parse::<u64>().unwrap();
        let hwm: f64 = field("hwm=").strip_suffix("MiB").unwrap().parse().unwrap();
        assert!(hwm > 0.0, "{footer}");
    }
}

/// `--print` of a name the program knows under another arity is a usage
/// error, sequentially and under a parallel scheme. A *base* predicate at
/// its own arity is accepted and prints its header without tuples:
/// `benchmark/src/e2e.rs` times `--print par/2` runs and counts any fact
/// line as a wrong answer, so printing the base relation itself has to
/// arrive together with a change to the benchmark.
#[test]
fn print_checks_the_arity_and_accepts_base_predicates() {
    let file = write_program("print-arity.dl", ANCESTOR);
    for scheme in ["seq", "example3"] {
        let run = |spec: &str| {
            cli("run", &file, &format!("--scheme {scheme} --workers 2 --print {spec}"))
        };
        for spec in ["par/3", "anc/1"] {
            let out = run(spec);
            assert!(!out.status.success(), "{scheme}: --print {spec} must fail");
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert!(stderr.contains("has arity 2"), "{scheme} {spec}: {stderr}");
        }
        let out = run("nosuch/2");
        assert!(!out.status.success());
        assert!(String::from_utf8(out.stderr).unwrap().contains("unknown predicate"));

        let out = run("par/2");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert_eq!(String::from_utf8(out.stdout).unwrap(), "% par/2: 0 tuples\n");
    }
}

/// `--print` lists a relation in `Value` order — integers signed and
/// ascending, every integer before every symbol, symbols in the order
/// the program first names them (`zed` before `a` here) — column by
/// column. The expected text is what the 56-byte tagged row printed, and
/// the `i64::MIN` / `i64::MAX` / `-1` lines what `write!` formatted before
/// the digit writer took over; a row type that compares its raw words
/// would put `-3` after `2` and mix symbol ids in among the integers.
#[test]
fn print_order_is_value_order_across_ints_and_symbols() {
    let file = write_program(
        "print-order.dl",
        "p(X,Y) :- q(X,Y).\n\
         p(X,Y) :- p(Y,X).\n\
         q(-3, zed). q(2, a). q(zed, 1). q(-3, -7). q(a, zed). q(2, -7). q(0, 0).\n\
         q(-9223372036854775808, -1). q(9223372036854775807, zed). q(-1, -9223372036854775808).",
    );
    let expected = "% p/2: 17 tuples\n\
                    p(-9223372036854775808, -1).\np(-7, -3).\np(-7, 2).\np(-3, -7).\np(-3, zed).\n\
                    p(-1, -9223372036854775808).\np(0, 0).\np(1, zed).\np(2, -7).\np(2, a).\n\
                    p(9223372036854775807, zed).\n\
                    p(zed, -3).\np(zed, 1).\np(zed, 9223372036854775807).\np(zed, a).\np(a, 2).\np(a, zed).\n";
    for scheme in ["seq", "general --workers 2"] {
        let out = cli("run", &file, &format!("--scheme {scheme} --print p/2"));
        assert!(out.status.success(), "{scheme}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        let (got, want): (Vec<_>, Vec<_>) = (stdout.lines().collect(), expected.lines().collect());
        assert_eq!(got, want, "--scheme {scheme}");
    }
}

/// `--print` spells a constant the way the parser reads it — a symbol that
/// is not a plain lowercase identifier quoted and escaped, `i64::MIN` as
/// itself — so what one run prints parses back to the relation it printed.
#[test]
fn print_output_parses_back_to_the_same_facts() {
    use parallel_datalog::prelude::*;
    let source = r#"r(X,Y) :- e(X,Y).
        r(X,Y) :- e(X,Z), r(Z,Y).
        e("Ada Lovelace", "Grace Hopper"). e("Grace Hopper", "a\"b"). e("a\"b", alice).
        e(alice, "Alice"). e("Alice", -9223372036854775808). e(-9223372036854775808, "").
        e("", "tab\there"). e("tab\there", "new\nline"). e("new\nline", "back\\slash"). e(ß, "ü x")."#;
    let file = write_program("print-roundtrip.dl", source);
    let unit = parse_program(source).unwrap();
    let mut db = Database::new(unit.program.interner.clone());
    db.load_facts(unit.facts).unwrap();
    let r = (unit.program.interner.get("r").unwrap(), 2);
    let want = seminaive_eval(&unit.program, &db).unwrap().relation(r);
    for scheme in ["seq", "general --workers 2"] {
        let out = cli("run", &file, &format!("--scheme {scheme} --print r/2"));
        assert!(out.status.success(), "{scheme}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("\nr(-9223372036854775808, \"\").\n"), "{scheme}:\n{stdout}");
        let printed = parallel_datalog::frontend::parser::parse_program_with(&stdout, &unit.program.interner)
            .unwrap_or_else(|e| panic!("{scheme}: {e}\n{stdout}"));
        assert!(printed.facts.iter().all(|(p, _)| (p.name, p.arity) == r), "{scheme}");
        let got: Relation = printed.facts.into_iter().flat_map(|(_, rows)| rows).collect();
        assert!(got.len() == want.len() && got.set_eq(&want), "{scheme}:\n{stdout}");
    }
}

#[test]
fn analyze_reports_sirup_and_theorem3() {
    let file = write_program("analyze.dl", ANCESTOR);
    let out = cli("analyze", &file, "");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("linear sirup: yes"));
    assert!(stdout.contains("2 → 2"));
    assert!(stdout.contains("Theorem 3: communication-free"));
}

#[test]
fn analyze_flags_non_sirup() {
    let file = write_program(
        "nonlin.dl",
        "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), anc(Z,Y).\npar(1,2).",
    );
    let out = cli("analyze", &file, "");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("linear sirup: no"));
}

#[test]
fn network_bits_and_linear() {
    let file = write_program(
        "net.dl",
        "p(X,Y) :- q(X,Y).\np(X,Y) :- p(Y,Z), r(X,Z).\nq(1,2).",
    );
    let out = cli("network", &file, "");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("(00) → (10)"), "{stdout}");

    let out = cli("network", &file, "--linear 1,-1");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("P = [-1, 0, 1]"), "{stdout}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = pdatalog().output().unwrap();
    assert!(!out.status.success());

    let out = pdatalog().args(["run", "/nonexistent/file.dl"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    let file = write_program("bad.dl", ANCESTOR);
    let out = cli("run", &file, "--scheme bogus");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown scheme"));

    // A retired flag is an unknown argument (EXPERIMENTS.md P24).
    let out = cli("run", &file, "--scheme example3 --skew-aware");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unexpected argument `--skew-aware`"), "{stderr}");
}

#[test]
fn parse_errors_reported_with_location() {
    let file = write_program("syntax.dl", "anc(X,Y :- par(X,Y).");
    let out = cli("run", &file, "");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "{stderr}");
}

/// `run --query GOAL`, to completion: its stdout, or its stderr on failure.
fn query(file: &std::path::Path, goal: &str) -> std::result::Result<String, String> {
    let out = cli("run", file, &format!("--query {goal}"));
    match out.status.success() {
        true => Ok(String::from_utf8(out.stdout).unwrap()),
        false => Err(String::from_utf8(out.stderr).unwrap()),
    }
}

#[test]
fn query_binds_variables() {
    let file = write_program("query.dl", ANCESTOR);
    let want = "% anc/2: 3 tuples\nanc(1, 2).\nanc(1, 3).\nanc(1, 4).\n";
    assert_eq!(query(&file, "anc(1,X)").unwrap(), want);
}

#[test]
fn query_ground_goals_answer_true_false() {
    let file = write_program("query2.dl", ANCESTOR);
    assert_eq!(query(&file, "anc(1,4)").unwrap(), "% anc/2: 1 tuples\nanc(1, 4).\n");
    assert_eq!(query(&file, "anc(4,1)").unwrap(), "% anc/2: 0 tuples\n");
}

/// A goal that binds no argument runs the whole program and keeps the
/// tuples that match it.
#[test]
fn query_repeated_variables_filter() {
    let file = write_program(
        "query3.dl",
        "t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).\ne(1,2). e(2,1). e(2,3).",
    );
    // Self-reachable nodes: 1 and 2 (via the 1↔2 cycle).
    let want = "% t/2: 2 tuples\nt(1, 1).\nt(2, 2).\n";
    assert_eq!(query(&file, "t(X,X)").unwrap(), want);
    let out = cli("run", &file, "--query t(X,X) --scheme general --workers 2");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), want);
}

#[test]
fn query_unknown_predicate_fails() {
    let file = write_program("query4.dl", ANCESTOR);
    let stderr = query(&file, "zzz(X)").unwrap_err();
    assert!(stderr.contains("unknown predicate `zzz`"), "{stderr}");
}

/// A goal on a base relation runs the program and keeps the facts that
/// match it.
#[test]
fn query_base_relation_directly() {
    let file = write_program("query5.dl", ANCESTOR);
    assert_eq!(query(&file, "par(2,X)").unwrap(), "% par/2: 1 tuples\npar(2, 3).\n");
}

#[test]
fn sample_programs_ship_and_run() {
    // The repo's examples/programs/*.dl files must stay valid.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for (file, check) in [
        ("examples/programs/ancestor.dl", "anc("),
        ("examples/programs/chain_sirup.dl", "p("),
        ("examples/programs/org.dl", "chain("),
        ("examples/programs/zipf_ancestor.dl", "anc("),
    ] {
        let out = cli("run", root.join(file), "");
        assert!(
            out.status.success(),
            "{file}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(check),
            "{file} output missing {check}"
        );
    }
}

#[test]
fn sim_recoverable_crash_reports_restart_and_matches_sequential() {
    let file = write_program("recover.dl", ANCESTOR);
    let seq = cli("run", &file, "");
    assert!(seq.status.success());
    let reference = String::from_utf8(seq.stdout).unwrap();

    // A mid-run crash marked `recover`: the supervisor restarts the
    // worker, peers replay, and the pooled model must still match the
    // sequential closure bit-for-bit. Uncrashed, this seed terminates at
    // tick 25.
    let crashed = "--scheme example3 --workers 3 --sim --seed 5 --faults chaos,crash=1@12,recover";
    let out = cli("run", &file, &format!("{crashed} --stats"));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), reference, "recovered model differs");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("restarts=1"), "{stderr}");
    assert!(stderr.contains("faults=chaos,crash=1@12,recover"), "{stderr}");

    // Same crash with the restart budget zeroed out: the supervisor
    // aborts at once, naming the crash, and nothing restarts.
    let out = cli("run", &file, &format!("{crashed} --max-restarts 0 --trace"));
    assert!(!out.status.success(), "zero restart budget must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("injected crash of processor 1 at virtual time 12"), "{stderr}");
    assert!(stderr.contains("crashed") && !stderr.contains("restarted"), "{stderr}");

    // `recover` is a crash modifier, not a standalone fault.
    let out = cli("run", &file, "--scheme example3 --sim --faults chaos,recover");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("recover without a crash"));
}

#[test]
fn threaded_trace_out_writes_chrome_json() {
    let file = write_program("traceout.dl", ANCESTOR);
    let trace = std::env::temp_dir()
        .join("pdatalog-cli-tests")
        .join("trace_threaded.json");
    let _ = std::fs::remove_file(&trace);
    let out = cli("run", &file, &format!("--scheme example3 --workers 4 --trace-out {} --stats", trace.display()));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let body = std::fs::read_to_string(&trace).unwrap();
    assert!(body.starts_with("{\"traceEvents\":["), "{body}");
    assert!(body.contains("\"worker 0\""), "missing worker track: {body}");
    assert!(body.contains("\"ph\":\"B\"") && body.contains("\"ph\":\"E\""), "{body}");
    // The new --stats tables ride along on stderr.
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("channel matrix"), "{stderr}");
    assert!(stderr.contains("wire codec"), "{stderr}");
}

#[test]
fn threaded_trace_prints_the_journal() {
    let file = write_program("tracejournal.dl", ANCESTOR);
    let out = cli("run", &file, "--scheme example3 --workers 2 --trace");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("round 0 begin"), "{stderr}");
    assert!(stderr.contains("end of journal"), "{stderr}");
}

#[test]
fn sim_flags_still_require_sim_but_trace_does_not() {
    let file = write_program("traceflags.dl", ANCESTOR);
    // --seed / --faults remain simulation-only...
    for args in ["--seed 3", "--faults jitter"] {
        let out = cli("run", &file, &format!("--scheme example3 {args}"));
        assert!(!out.status.success());
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("only make sense with --sim"),
            "{args:?}"
        );
    }
    // ...and tracing needs a parallel run to observe.
    let out = cli("run", &file, "--scheme seq --trace");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("parallel scheme"));
}

#[test]
fn sim_trace_is_deterministic_per_seed() {
    let file = write_program("tracesim.dl", ANCESTOR);
    let run = || {
        let out = cli("run", &file, "--scheme example3 --workers 3 --sim --seed 11 --faults jitter --trace");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stderr).unwrap()
    };
    let first = run();
    assert!(first.contains("ticks"), "sim journal should count virtual ticks: {first}");
    assert_eq!(first, run(), "same seed must print a bit-identical journal");
}

#[test]
fn profile_flags_write_both_exports() {
    let file = write_program("profile.dl", ANCESTOR);
    let dir = std::env::temp_dir().join("pdatalog-cli-tests");
    let json = dir.join("profile_threaded.json");
    let _ = std::fs::remove_file(&json);
    let out = cli("run", &file, &format!("--scheme example3 --workers 4 --profile --profile-json {} --stats", json.display()));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("% profile (us"), "{stderr}");
    assert!(stderr.contains("busy%"), "{stderr}");
    // The --stats footer gains the per-worker busy table and the
    // utilization figure on the summary line.
    assert!(stderr.contains("worker busy"), "{stderr}");
    assert!(stderr.contains("utilization="), "{stderr}");
    let body = std::fs::read_to_string(&json).unwrap();
    assert!(body.starts_with("{\"time_base\":\"wall_micros\""), "{body}");
    assert!(body.contains("\"merged\":{\"phases\":{\"compute\":"), "{body}");
    assert!(body.contains("\"hot_rules\""), "{body}");
}

/// A profile is phase totals and per-rule time: there is no Prometheus
/// export, and the flag that wrote one is an unknown argument.
#[test]
fn metrics_out_is_an_unknown_argument() {
    let file = write_program("profilemetrics.dl", ANCESTOR);
    let out = cli("run", &file, "--scheme example3 --workers 2 --profile --metrics-out unused.prom");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unexpected argument `--metrics-out`"), "{stderr}");
}

#[test]
fn sim_profile_json_is_deterministic_per_seed() {
    let file = write_program("profilesim.dl", ANCESTOR);
    let dir = std::env::temp_dir().join("pdatalog-cli-tests");
    let run = |name: &str| {
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        let out = cli("run", &file, &format!("--scheme example3 --workers 3 --sim --seed 11 --faults jitter --profile-json {}", path.display()));
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(&path).unwrap()
    };
    let first = run("profile_sim_a.json");
    assert!(first.starts_with("{\"time_base\":\"virtual_ticks\""), "{first}");
    assert_eq!(
        first,
        run("profile_sim_b.json"),
        "same seed must export a bit-identical profile"
    );
}

#[test]
fn profile_requires_a_parallel_scheme() {
    let file = write_program("profileseq.dl", ANCESTOR);
    for flag in ["--profile", "--profile-json"] {
        let mut cmd = pdatalog();
        cmd.args(["run"]).arg(&file).args(["--scheme", "seq", flag]);
        if flag == "--profile-json" {
            cmd.arg("unused.json");
        }
        let out = cmd.output().unwrap();
        assert!(!out.status.success());
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("parallel scheme"),
            "{flag}"
        );
    }
}

#[test]
fn analyze_shows_advisor_recommendations() {
    // Linear ancestor: Theorem 3's choice, every pair home …
    let file = write_program("advise.dl", ANCESTOR);
    let stdout = String::from_utf8(cli("analyze", &file, "").stdout).unwrap();
    let implied = "  v(r1) = ⟨Y⟩: condition implied by anc_in (key ⟨Y⟩ at column 1)";
    for line in ["  v(r0) = ⟨Y⟩: filtered", implied, "  r0 → anc(Z, Y) in r1: home", "  r1 → anc(Z, Y) in r1: home"] {
        assert!(stdout.lines().any(|l| l == line), "missing `{line}`:\n{stdout}");
    }
    // … and the plan a `general` run reports is the one `analyze` printed.
    let run = cli("run", &file, "--scheme general --workers 2 --stats");
    let stderr = String::from_utf8(run.stderr).unwrap();
    assert!(stderr.contains(" tuples_sent=0 ") && stderr.contains(" v=⟨Y⟩,⟨Y⟩ "), "{stderr}");

    // Programs that are no linear sirup get the same lines: Example 8 keys
    // both occurrences on Z, same-generation on the recursive atom's U.
    for (name, src, v, pairs) in [
        ("advise_nl.dl", "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), anc(Z,Y).\npar(1,2).", "⟨X⟩,⟨Z⟩", 4),
        ("advise_sg.dl", "sg(X,Y) :- flat(X,Y).\nsg(X,Y) :- up(X,U), sg(U,V), down(V,Y).\nflat(1,1).", "⟨X⟩,⟨U⟩", 2),
    ] {
        let file = write_program(name, src);
        let stdout = String::from_utf8(cli("analyze", &file, "").stdout).unwrap();
        let chosen: Vec<&str> = stdout.lines().filter_map(|l| l.strip_prefix("  v(r")?.split(" = ").nth(1)?.split(':').next()).collect();
        assert_eq!(chosen.join(","), v, "{stdout}");
        let flows: Vec<&str> = stdout.lines().filter(|l| l.contains(" → ") && l.contains(" in r")).collect();
        assert_eq!(flows.len(), pairs, "{stdout}");
        assert!(flows.iter().all(|l| !l.ends_with("broadcast")), "{stdout}");
        let run = cli("run", &file, "--scheme general --workers 2 --stats");
        assert!(String::from_utf8(run.stderr).unwrap().contains(&format!(" v={v} ")), "{name}");
    }
}

/// `analyze` says, per rule, whether `--scheme general` filters on its
/// condition or the placement implies it: linear ancestor's recursive rule
/// reads `anc_in`, which every route keys on its `v(r)`; Example 8 keys
/// `anc` on two columns, so neither rule's condition is implied.
#[test]
fn analyze_says_which_conditions_the_placement_implies() {
    let conditions = |file: &std::path::Path| -> Vec<String> {
        let out = cli("analyze", file, "");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        stdout.lines().filter_map(|l| Some(l.strip_prefix("  v(r")?.split_once(": ")?.1.to_string())).collect()
    };
    let shipped = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs/ancestor.dl");
    assert_eq!(conditions(&shipped), ["filtered", "condition implied by anc_in (key ⟨Y⟩ at column 1)"]);
    let example8 = write_program("implied_ex8.dl", "anc(X,Y) :- par(X,Y).\nanc(X,Y) :- anc(X,Z), anc(Z,Y).\npar(1,2).");
    assert_eq!(conditions(&example8), ["filtered", "filtered"]);
}

/// A program of facts alone has nothing to distribute: the parallel run
/// says so, instead of blaming discriminating functions nobody wrote.
#[test]
fn a_program_without_rules_is_refused_by_name() {
    let file = write_program("facts_only.dl", "par(1,2).\npar(2,3).\n");
    assert!(cli("run", &file, "--scheme seq").status.success());
    let out = cli("run", &file, "--scheme general --workers 2");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(!out.status.success());
    assert!(stderr.contains("the program has no rules"), "{stderr}");
    assert!(!stderr.contains("discriminating functions must share"), "{stderr}");
}

/// `--updates`: a live incrementally maintained session over the general
/// scheme. After a stream of insert/delete batches (two explicit commits
/// plus an implicit trailing batch whose only delete is absent, a no-op)
/// the printed model must equal a from-scratch sequential run over the
/// updated fact base, and `--stats` must report every round.
#[test]
fn updates_stream_matches_recompute_and_reports_rounds() {
    let file = write_program("updates.dl", ANCESTOR);
    let ups = write_program(
        "updates.stream",
        "% grow the chain, then cut it and heal around the cut\n\
         +par(4,5).\n\
         commit.\n\
         -par(2,3).\n\
         +par(2,5).\n\
         commit.\n\
         -par(99,100).\n",
    );
    let out = cli("run", &file, &format!("--scheme general --workers 3 --stats --updates {}", ups.display()));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();

    // The same final database, recomputed from scratch sequentially.
    let final_file = write_program(
        "updates_final.dl",
        "anc(X,Y) :- par(X,Y).\n\
         anc(X,Y) :- par(X,Z), anc(Z,Y).\n\
         par(1,2). par(3,4). par(4,5). par(2,5).",
    );
    let seq = cli("run", &final_file, "");
    assert!(seq.status.success());
    let reference = String::from_utf8(seq.stdout).unwrap();
    assert_eq!(stdout, reference, "maintained view differs from the recompute");

    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("update_rounds=3"), "{stderr}");
    assert!(stderr.contains("% round 1:"), "{stderr}");
    assert!(stderr.contains("% round 3:"), "{stderr}");
    assert!(stderr.contains("retract_tuples_sent="), "{stderr}");
}

/// `--updates` composes with the deterministic simulation transport: the
/// maintained model is the same one the threaded transport computes.
#[test]
fn updates_under_simulation_match_threaded() {
    let file = write_program("updates_sim.dl", ANCESTOR);
    let ups = write_program("updates_sim.stream", "-par(2,3).\n+par(2,4).\ncommit.\n");
    let run = |extra: &[&str]| {
        let out = pdatalog()
            .args(["run"])
            .arg(&file)
            .args(["--scheme", "general", "--workers", "3", "--updates"])
            .arg(&ups)
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let threaded = run(&[]);
    let simulated = run(&["--sim", "--seed", "9", "--faults", "jitter"]);
    assert_eq!(threaded, simulated, "sim and threaded sessions disagree");
}

/// `--updates` misuse fails cleanly: sequential schemes have no workers
/// to maintain state in, and a malformed stream names its line.
#[test]
fn updates_usage_errors_are_clean() {
    let file = write_program("updates_bad.dl", ANCESTOR);
    let ups = write_program("updates_bad.stream", "+par(9,10).\n");
    let out = cli("run", &file, &format!("--scheme seq --updates {}", ups.display()));
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("parallel scheme"), "{stderr}");

    let garbled = write_program("updates_garbled.stream", "+par(1,2).\nfrobnicate!\n");
    let out = cli("run", &file, &format!("--scheme general --workers 2 --updates {}", garbled.display()));
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 2"), "{stderr}");

    let nonground = write_program("updates_nonground.stream", "+par(X,2).\n");
    let out = cli("run", &file, &format!("--scheme general --workers 2 --updates {}", nonground.display()));
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("ground"), "{stderr}");
}

/// A directive is read by the program's lexer: a `%` inside a quoted
/// string belongs to the string, and one after the fact starts a comment.
#[test]
fn updates_keep_a_percent_sign_inside_a_string() {
    let file = write_program("updates_percent.dl", "t(X,Y) :- e(X,Y).\ne(a, b).\n");
    let ups = write_program("updates_percent.stream", "+e(\"x%y\", \"z\"). % a comment: e(\"not\n// another\ncommit.\n");
    let out = cli("run", &file, &format!("--scheme general --workers 2 --updates {}", ups.display()));
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8(out.stdout).unwrap(), "% t/2: 2 tuples\nt(a, b).\nt(\"x%y\", z).\n");
}

// ---------------------------------------------------------------------
// `--query`: demand-driven point queries via magic sets (DESIGN.md §15).
// ---------------------------------------------------------------------

/// `run --query` prints exactly the goal's answers, under the original
/// predicate name, on the sequential and the demand-partitioned
/// parallel paths alike (threaded and simulated).
#[test]
fn query_mode_prints_only_the_goals_answers() {
    let file = write_program("magic_query.dl", ANCESTOR);
    let runs: Vec<Vec<&str>> = vec![
        vec![],
        vec!["--scheme", "general", "--workers", "3"],
        vec!["--scheme", "general", "--workers", "3", "--sim", "--seed", "7", "--faults", "jitter"],
    ];
    for extra in runs {
        let out = cli("run", &file, &format!("--query anc(2,Y) {}", extra.join(" ")));
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(stdout.contains("% anc/2: 2 tuples"), "{extra:?}: {stdout}");
        assert!(stdout.contains("anc(2, 3)."), "{extra:?}: {stdout}");
        assert!(stdout.contains("anc(2, 4)."), "{extra:?}: {stdout}");
        assert!(!stdout.contains("anc(1,"), "{extra:?}: leaked non-answers: {stdout}");
        assert!(!stdout.contains("m_anc"), "{extra:?}: leaked magic relations: {stdout}");
    }
}

/// A bare `--query` takes the goal from the file's `?- goal.` line.
#[test]
fn query_mode_uses_the_files_embedded_goal() {
    let file = write_program(
        "magic_embedded.dl",
        &format!("{ANCESTOR}\n?- anc(3, Y).\n"),
    );
    let out = cli("run", &file, "--query");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("% anc/2: 1 tuples"), "{stdout}");
    assert!(stdout.contains("anc(3, 4)."), "{stdout}");

    let bare = write_program("magic_no_goal.dl", ANCESTOR);
    let out = cli("run", &bare, "--query");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("?- goal"), "needs a goal");
}

/// `--explain-rewrite` prints the adorned + magic program with
/// provenance comments instead of running it.
#[test]
fn explain_rewrite_prints_the_magic_program() {
    let file = write_program("magic_explain.dl", ANCESTOR);
    let out = cli("run", &file, "--query anc(1,Y) --explain-rewrite");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("anc_bf(X, Y) :- m_anc_bf(X), par(X, Y)."), "{stdout}");
    assert!(stdout.contains("m_anc_bf(Z) :- m_anc_bf(X), par(X, Z)."), "{stdout}");
    assert!(stdout.contains("% anc^bf [magic r1]"), "{stdout}");
    assert!(stdout.contains("% demand seed"), "{stdout}");
}

/// `--stats` in query mode reports the work avoided against a
/// full-closure run: a non-vacuous demand_ratio on both paths.
#[test]
fn query_stats_report_demand_ratio() {
    let file = write_program("magic_stats.dl", &chain_program(20));
    for extra in [vec![], vec!["--scheme", "general", "--workers", "3"]] {
        let out = cli("run", &file, &format!("--query anc(17,Y) --stats {}", extra.join(" ")));
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("demand_ratio=0."), "{extra:?}: {stderr}");
    }
}

/// `--profile` in query mode labels the magic/adorned rules in the
/// hot-rule table.
#[test]
fn query_profile_labels_magic_rules() {
    let file = write_program("magic_profile.dl", ANCESTOR);
    let out = cli("run", &file, "--query anc(1,Y) --scheme general --workers 2 --sim --seed 3 --profile");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("hot rules"), "{stderr}");
    assert!(stderr.contains("anc^bf ["), "{stderr}");
}

/// Query-mode misuse fails with a clear message, and so does explaining
/// a rewrite the goal does not get.
#[test]
fn query_usage_errors_are_clean() {
    let file = write_program("magic_usage.dl", ANCESTOR);
    let cases = [
        ("--query anc(1,Y) --print anc/2", "--print"),
        ("--explain-rewrite", "--query"),
        ("--query anc(1,Y) --scheme example3", "seq or general"),
        ("--query anc(X,Y) --explain-rewrite", "bound argument"),
        ("--query par(1,Y) --explain-rewrite", "derived"),
        // A goal is one atom: no conjunction, comparison or further clause.
        ("--query anc(1,Y),par(Y,2)", "bad goal `anc(1,Y),par(Y,2)`"),
        ("--query anc(1,Y),Y!=3", "bad goal `anc(1,Y),Y!=3`"),
        ("--query anc(1,Y).junk(Q):-par(Q,W)", "bad goal `anc(1,Y).junk(Q):-par(Q,W)`"),
    ];
    for (args, want) in cases {
        let out = cli("run", &file, args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}

/// The shipped org chart example runs end-to-end in query mode.
#[test]
fn org_magic_example_answers_its_embedded_query() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = cli("run", root.join("examples/programs/org_magic.dl"), "--query --scheme general --workers 4 --stats");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("% boss/2: 4 tuples"), "{stdout}");
    assert!(stdout.contains("boss(ivan, ceo)."), "{stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("demand_ratio=0."), "{stderr}");
}

/// `--workers` is a ceiling: a goal whose only demand is its seed runs on
/// one processor and `--stats` says why; a goal whose demand grows keeps
/// every worker. A crash plan must name a processor the plan has.
#[test]
fn query_stats_show_the_processor_count_the_compiler_picked() {
    let org = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/programs/org_magic.dl");
    let run = |goal: &str, extra: &[&str]| {
        let args = ["--query", goal, "--scheme", "general", "--workers", "4", "--stats"];
        pdatalog().arg("run").arg(&org).args(args).args(extra).output().unwrap()
    };
    let one = "processors=1 of 4 (one demand key) ";
    for (goal, extra, want) in [
        ("boss(ivan, B)", &[][..], &[one][..]),
        ("boss(ivan, B)", &["--sim", "--faults", "chaos,crash=0@0,recover"][..], &[one, "restarts=1 "][..]),
        ("boss(E, ceo)", &[][..], &["processors=4 "][..]),
    ] {
        let out = run(goal, extra);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(out.status.success() && want.iter().all(|w| stderr.contains(w)), "{goal} {extra:?}: {stderr}");
        assert!(String::from_utf8(out.stdout).unwrap().contains("boss(ivan, ceo)."), "{goal}");
    }
    let out = run("boss(ivan, B)", &["--sim", "--faults", "chaos,crash=1@0"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("nonexistent processor 1"));
}

// ---------------------------------------------------------------------
// `--net`: one OS process per worker over loopback TCP (DESIGN.md §12).
// ---------------------------------------------------------------------

/// A chain long enough that every worker ships well over the fault/kill
/// byte thresholds used below (which must sit far under the minimum
/// traffic: report and heartbeat counts jitter run-to-run, so a threshold
/// near the total would fire only sometimes).
fn chain_program(n: i64) -> String {
    let mut src = String::from("anc(X,Y) :- par(X,Y).\nanc(X,Y) :- par(X,Z), anc(Z,Y).\n");
    for i in 1..n {
        src.push_str(&format!("par({i},{}).\n", i + 1));
    }
    src
}

/// A deterministic pseudo-random digraph (LCG), denser than the chain.
fn random_program() -> String {
    let mut src = String::from("t(X,Y) :- e(X,Y).\nt(X,Y) :- e(X,Z), t(Z,Y).\n");
    let mut state = 0xC0FFEEu64;
    for _ in 0..60 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let a = (state >> 33) % 15;
        let b = (state >> 17) % 15;
        src.push_str(&format!("e({a},{}).\n", (b + 1) % 15));
    }
    src
}

/// The same closure by Example 8's non-linear rule. `general` compiles the
/// linear rule to a communication-free plan, and a byte-counted kill needs
/// traffic to count: its cells below run this form, which always ships.
fn nonlinear(src: &str) -> String {
    src.replace("par(X,Z), anc(Z,Y)", "anc(X,Z), anc(Z,Y)").replace("e(X,Z), t(Z,Y)", "t(X,Z), t(Z,Y)")
}

fn run_sorted(file: &std::path::Path, extra: &[&str]) -> (bool, String, String) {
    let out = pdatalog().args(["run"]).arg(file).args(extra).output().unwrap();
    let mut lines: Vec<&str> = std::str::from_utf8(&out.stdout).unwrap().lines().collect();
    lines.sort_unstable();
    (
        out.status.success(),
        lines.join("\n"),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// The TCP multi-process transport computes the same least model as the
/// in-process threads, for both a chain and a random graph under two
/// rewriting schemes.
#[test]
fn net_transport_matches_threaded() {
    for (name, src, preds) in [
        ("chain", chain_program(30), "anc/2"),
        ("random", random_program(), "t/2"),
    ] {
        let file = write_program(&format!("net_{name}.dl"), &src);
        for scheme in ["example3", "general"] {
            let base = ["--scheme", scheme, "--workers", "4", "--print", preds];
            let (ok, threaded, err) = run_sorted(&file, &base);
            assert!(ok, "{name}/{scheme} threaded: {err}");
            let mut net_args = base.to_vec();
            net_args.push("--net");
            let (ok, net, err) = run_sorted(&file, &net_args);
            assert!(ok, "{name}/{scheme} net: {err}");
            assert_eq!(net, threaded, "{name}/{scheme}: --net must be bit-identical");
        }
    }
}

/// SIGKILL a live worker process mid-fixpoint (byte-counted, so it lands
/// while traffic is in flight): the supervisor restarts it, survivors
/// replay, and stdout is bit-identical to the undisturbed run.
#[test]
fn net_sigkill_mid_fixpoint_recovers_bit_exact() {
    for (name, src) in [("chain", chain_program(30)), ("random", random_program())] {
        for scheme in ["example3", "general"] {
            let src = if scheme == "general" { nonlinear(&src) } else { src.clone() };
            let file = write_program(&format!("net_kill_{name}_{scheme}.dl"), &src);
            let base = ["--scheme", scheme, "--workers", "4"];
            let (ok, reference, err) = run_sorted(&file, &base);
            assert!(ok, "{name}/{scheme}: {err}");
            let (ok, recovered, stderr) = run_sorted(
                &file,
                &["--scheme", scheme, "--workers", "4", "--net", "--net-kill", "1@300", "--stats"],
            );
            assert!(ok, "{name}/{scheme}: {stderr}");
            assert_eq!(
                recovered, reference,
                "{name}/{scheme}: recovery must converge to the least model"
            );
            assert!(stderr.contains("restarts=1"), "{name}/{scheme}: {stderr}");
            assert!(stderr.contains("reconnects=1"), "{name}/{scheme}: {stderr}");
        }
    }
}

/// SIGKILL during a live `--updates` session: the maintained view after
/// every batch matches the threaded run's, through the crash.
#[test]
fn net_sigkill_mid_updates_recovers_bit_exact() {
    let file = write_program("net_kill_upd.dl", &nonlinear(&chain_program(30)));
    let ups = write_program(
        "net_kill_upd.stream",
        "+par(30,31).\ncommit.\n-par(5,6).\ncommit.\n+par(5,6).\ncommit.\n",
    );
    let base = ["--scheme", "general", "--workers", "3", "--updates"];
    let out = pdatalog().args(["run"]).arg(&file).args(base).arg(&ups).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let reference = String::from_utf8(out.stdout).unwrap();

    let out = cli("run", &file, &format!("--scheme general --workers 3 --net --net-kill 1@300 --stats --updates {}", ups.display()));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), reference);
    assert!(stderr.contains("restarts=1"), "{stderr}");
}

/// Socket-level faults on a worker's write path — clean disconnect,
/// truncated frame, garbage bytes — all recover to the exact least
/// model via restart + replay.
#[test]
fn net_socket_faults_recover_bit_exact() {
    let file = write_program("net_faults.dl", &chain_program(30));
    let (ok, reference, err) =
        run_sorted(&file, &["--scheme", "example3", "--workers", "4"]);
    assert!(ok, "{err}");
    for fault in ["1:disconnect@300", "1:truncate@300", "1:garbage@300"] {
        let (ok, recovered, stderr) = run_sorted(
            &file,
            &["--scheme", "example3", "--workers", "4", "--net", "--net-faults", fault, "--stats"],
        );
        assert!(ok, "{fault}: {stderr}");
        assert_eq!(recovered, reference, "{fault}: must match the clean run");
        assert!(stderr.contains("restarts=1"), "{fault}: {stderr}");
    }
}

/// A persistent fault (`!`) kills every incarnation: the restart budget
/// runs out and the run fails fast with the link-level cause — no hang.
/// The trip point must sit below the smallest write any incarnation can
/// make (handshake + RESULT frame): a replay-assisted restart sends very
/// little data-plane traffic, and a threshold it can duck under lets the
/// run legitimately recover instead of exhausting the budget.
#[test]
fn net_persistent_fault_fails_fast() {
    let file = write_program("net_persist.dl", &chain_program(30));
    let (ok, _, stderr) = run_sorted(
        &file,
        &["--scheme", "example3", "--workers", "4", "--net", "--net-faults", "1:disconnect@150!"],
    );
    assert!(!ok, "a persistent fault must exhaust the budget");
    assert!(
        stderr.contains("link") || stderr.contains("frame") || stderr.contains("EOF"),
        "{stderr}"
    );
}

/// A linear sirup whose recursive atom has arity `k`, each of its
/// variables bound by the base atom and none in the head.
fn sirup_of_arity(k: usize) -> String {
    let vars = |x: &str| (0..k).map(|i| format!("{x}{i}")).collect::<Vec<_>>();
    let (xs, ys) = (vars("X").join(","), vars("Y").join(","));
    let b = [vars("X"), vars("Y")].concat().join(",");
    format!("t({xs}) :- s({xs}).\nt({xs}) :- b({b}), t({ys}).\n")
}

/// `--net` misuse fails with a clear message and exit status 1 instead of
/// a broken fleet or a panic, and so does every retired command, flag and
/// scheme, a worker count above the ceiling (refused before anything
/// compiles or spawns), an argument `analyze` does not read, linear
/// coefficients whose sums overflow `i64`, and a network over a sirup too
/// wide to enumerate or with no variable to discriminate on.
#[test]
fn net_usage_errors_are_clean() {
    let file = write_program("net_usage.dl", &chain_program(5));
    let [nullary, arity13, arity17] = [0, 13, 17].map(|k| write_program(&format!("arity{k}.dl"), &sirup_of_arity(k)));
    for (cmd, file, args, want) in [
        ("run", &file, "--scheme example3 --net --sim", "exclusive"),
        ("run", &file, "--scheme seq --net", "parallel scheme"),
        ("run", &file, "--scheme example3 --net-kill 1@100", "--net"),
        ("run", &file, "--scheme example3 --workers 100000000", "at most 1024"),
        ("run", &file, "--scheme example3 --watchdog-ms 100", "unexpected argument `--watchdog-ms`"),
        ("run", &file, "--scheme example3 --restart-backoff-ms 10", "unexpected argument `--restart-backoff-ms`"),
        ("run", &file, "--scheme example3 --net --heartbeat-ms 10", "unexpected argument `--heartbeat-ms`"),
        ("run", &file, "--scheme example3 --net --heartbeat-timeout-ms 10", "unexpected argument `--heartbeat-timeout-ms`"),
        ("run", &file, "--scheme example3 --net --connect-timeout-ms 10", "unexpected argument `--connect-timeout-ms`"),
        ("run", &file, "--scheme example3 --net --connect-backoff-ms 10", "unexpected argument `--connect-backoff-ms`"),
        ("run", &file, "--scheme naive", "unknown scheme `naive`"),
        ("network", &file, "--bits", "unexpected argument `--bits`"),
        ("network", &file, "--linear 9223372036854775807,9223372036854775807", "overflows i64"),
        ("query", &file, "anc(1,X)", "unknown command `query`"),
        ("analyze", &file, "--bogus 7", "unexpected argument `--bogus`"),
        ("network", &nullary, "", "1 to 16 variables"),
        ("network", &arity13, "", "at most 24"),
        ("network", &arity17, "", "1 to 16 variables"),
    ] {
        let out = cli(cmd, file, args);
        assert_eq!(out.status.code(), Some(1), "{cmd} {file:?} {args:?} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{cmd} {args:?}: {stderr}");
    }
}
