//! The append-runs benchmark record format shared by `parbench` and
//! `defbench`: a JSON document `{"runs": [...]}` where each invocation
//! appends one timestamped entry, so the perf trajectory across changes is
//! preserved in-repo.

use bfly_common::Json;
use std::io::ErrorKind;

/// Append `run` to the `runs` array of the JSON document at `path`,
/// creating the document if absent. A legacy flat-object file (pre-append
/// format) is preserved as the first run entry.
///
/// Every appended run is stamped with `ts` (epoch seconds) and `cores`
/// (host parallelism) when the caller didn't set them, so no future run
/// can land unstamped the way the first BENCH_parallel.json entry did.
/// Pre-existing runs are left exactly as written — readers must tolerate
/// entries without `ts`/`cores`.
///
/// The new document is written to `<path>.tmp` and renamed over `path`, so
/// an interrupted write never leaves a truncated record.
///
/// # Panics
/// If `path` exists but cannot be read or does not parse (a truncated or
/// merge-conflicted record): the file is left untouched rather than
/// replaced by a one-run document that would drop its history.
pub fn append_run(path: &str, run: Json) {
    let mut runs: Vec<Json> = match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc = Json::parse(&text).unwrap_or_else(|e| {
                panic!("{path} is not a benchmark record ({e}); left untouched")
            });
            match doc.get("runs").and_then(Json::as_array) {
                Some(existing) => existing.to_vec(),
                None => vec![doc],
            }
        }
        Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
        Err(e) => panic!("cannot read {path} ({e}); left untouched"),
    };
    runs.push(stamp_run(run));
    let doc = Json::obj([("runs", Json::Arr(runs))]);
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, format!("{doc}\n")).unwrap_or_else(|e| panic!("write {tmp}: {e}"));
    std::fs::rename(&tmp, path).unwrap_or_else(|e| panic!("rename {tmp} to {path}: {e}"));
    println!("appended run to {path}");
}

/// Host logical-core count (1 if undeterminable), for the `cores` stamp.
pub fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Fill in `ts` and `cores` on a run object unless the caller already set
/// them. Non-object runs are passed through untouched.
fn stamp_run(run: Json) -> Json {
    let Json::Obj(mut map) = run else { return run };
    map.entry("ts".to_string())
        .or_insert_with(|| Json::from(epoch_seconds()));
    map.entry("cores".to_string())
        .or_insert_with(|| Json::from(host_cores()));
    Json::Obj(map)
}

/// Seconds since the Unix epoch, for the run entries' `ts` field.
pub fn epoch_seconds() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_run_accumulates_and_upgrades_legacy() {
        let dir = std::env::temp_dir().join(format!("bfly-record-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        // Legacy flat object becomes the first run entry.
        std::fs::write(path, "{\"old\":1}").unwrap();
        append_run(path, Json::obj([("new", Json::from(2u64))]));
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let runs = doc.get("runs").unwrap().as_array().unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].get("old").unwrap().as_u64(), Some(1));
        assert_eq!(runs[1].get("new").unwrap().as_u64(), Some(2));
        append_run(path, Json::obj([("new", Json::from(3u64))]));
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(doc.get("runs").unwrap().as_array().unwrap().len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_run_stamps_ts_and_cores_without_clobbering() {
        let dir = std::env::temp_dir().join(format!("bfly-record-stamp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        append_run(path, Json::obj([("metric", Json::from(7u64))]));
        append_run(
            path,
            Json::obj([("ts", Json::from(42u64)), ("cores", Json::from(99u64))]),
        );
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let runs = doc.get("runs").unwrap().as_array().unwrap();
        // Unstamped run gained both fields...
        assert!(runs[0].get("ts").unwrap().as_u64().unwrap() > 0);
        assert_eq!(runs[0].get("cores").unwrap().as_u64(), Some(host_cores()));
        // ...while caller-provided values survive.
        assert_eq!(runs[1].get("ts").unwrap().as_u64(), Some(42));
        assert_eq!(runs[1].get("cores").unwrap().as_u64(), Some(99));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_run_refuses_an_unparseable_record_and_leaves_it_untouched() {
        let dir = std::env::temp_dir().join(format!("bfly-record-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        let path = path.to_str().unwrap();
        let torn = "{\"runs\":[{";
        std::fs::write(path, torn).unwrap();
        let outcome = std::panic::catch_unwind(|| {
            append_run(path, Json::obj([("new", Json::from(1u64))]));
        });
        assert!(outcome.is_err(), "a torn record must be refused");
        assert_eq!(std::fs::read_to_string(path).unwrap(), torn);
        assert!(!dir.join("bench.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
