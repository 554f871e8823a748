//! Transport equivalence at the load-harness level: the same scheduled
//! population over loopback UDP, loopback TCP and the in-process
//! channel must produce byte-identical answer digests. This is the
//! in-tree version of the `BENCH_serve.json` digest columns.

use spair_load::socket::{
    answers_digest, build_programs, in_process_answers, run_jobs, schedule, socket_scenario,
};
use spair_methods::MethodRegistry;
use spair_serve::client::Transport;
use spair_serve::daemon::{ServeDaemon, ServeOptions, ServeWorld};

fn test_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spair_load_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

#[test]
fn udp_tcp_and_in_process_digests_agree() {
    let sc = socket_scenario(true);
    let programs = build_programs(&sc);
    let g = programs.world().g.clone();
    let registry = MethodRegistry::standard();
    let ids: Vec<_> = sc
        .methods
        .iter()
        .map(|n| registry.get(n).expect("scenario method"))
        .collect();

    let dir = test_dir("equiv");
    let world = ServeWorld::from_program_set(&programs, &ids);
    let daemon = ServeDaemon::start(world, ServeOptions::in_dir(&dir)).expect("start daemon");
    let addr = daemon.local_addr();

    let population = 12usize;
    for method in &sc.methods {
        let expected = {
            let jobs = schedule(&sc, &g, method, Transport::Udp, population);
            answers_digest(&in_process_answers(&programs, &jobs))
        };
        for transport in [Transport::Udp, Transport::Tcp] {
            let jobs = schedule(&sc, &g, method, transport, population);
            let (answers, failures) = run_jobs(addr, &jobs, 4);
            assert!(
                failures.is_empty(),
                "{method}/{} session failures: {failures:?}",
                transport.name()
            );
            assert_eq!(answers.len(), population);
            assert_eq!(
                answers_digest(&answers),
                expected,
                "{method}/{} digest diverged from in-process",
                transport.name()
            );
        }
    }

    // Worker-count invariance: the digest is a pure function of the
    // schedule, so 1 worker and 4 workers agree.
    let jobs = schedule(&sc, &g, sc.methods[0], Transport::Tcp, population);
    let (serial, failures) = run_jobs(addr, &jobs, 1);
    assert!(failures.is_empty(), "serial failures: {failures:?}");
    let (wide, failures) = run_jobs(addr, &jobs, 4);
    assert!(failures.is_empty(), "parallel failures: {failures:?}");
    assert_eq!(answers_digest(&serial), answers_digest(&wide));

    let summary = daemon.shutdown().expect("daemon shutdown");
    assert_eq!(summary.evictions, 0, "lossless population must not evict");
    assert_eq!(summary.rejections, 0);
    std::fs::remove_dir_all(&dir).ok();
}
