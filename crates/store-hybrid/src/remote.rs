//! Simulated REMOTE tier: a directory of per-partition objects.
//!
//! Each object `part-{mof}-{reducer}.obj` holds that partition's full
//! byte prefix at the moment it was drained, so a partition's logical
//! offset `o` is the object offset `o` — no extra index is needed. The
//! directory outlives the store that wrote it: quick decommission
//! drains every partition here, and a replacement supplier re-attaches
//! with [`crate::HybridStore::attach_remote`].

use crate::crash::{self, crash_error, CrashPlan, CrashSite};
use crate::sync::{lock, Mutex};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub(crate) struct RemoteStore {
    dir: PathBuf,
    /// Object lengths by partition; the `objects` lock is never held
    /// together with the store's `inner` lock (file reads resolve the
    /// path without consulting the map at all).
    objects: Mutex<HashMap<(u64, u32), u64>>,
}

impl RemoteStore {
    /// Open (or create) the object directory, indexing what's there.
    pub(crate) fn at(dir: &Path) -> io::Result<RemoteStore> {
        fs::create_dir_all(dir)?;
        let mut map = HashMap::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            if let Some(key) = parse_object_name(&name.to_string_lossy()) {
                map.insert(key, entry.metadata()?.len());
            }
        }
        Ok(RemoteStore {
            dir: dir.to_path_buf(),
            objects: Mutex::new(map),
        })
    }

    fn path(&self, mof: u64, reducer: u32) -> PathBuf {
        self.dir.join(format!("part-{mof}-{reducer}.obj"))
    }

    /// Store (or replace) the object for one partition, crash-atomically:
    /// the bytes go to a `.tmp` sibling, are fsynced, and only then does
    /// the publishing rename make the object name appear — a crash at any
    /// point leaves either the old object or a `.tmp` that recovery sweeps
    /// away, never a torn object.
    pub(crate) fn put(
        &self,
        mof: u64,
        reducer: u32,
        bytes: &[u8],
        crash_plan: &Option<Arc<CrashPlan>>,
    ) -> io::Result<()> {
        let tmp = self.dir.join(format!("part-{mof}-{reducer}.obj.tmp"));
        let dst = self.path(mof, reducer);
        let mut f = fs::File::create(&tmp)?;
        if crash::check(crash_plan, CrashSite::RemoteTmpWrite) {
            // Simulated kill mid-write: a torn prefix stays in the .tmp.
            let keep = bytes.get(..bytes.len() / 2).unwrap_or(bytes);
            let _ = f.write_all(keep);
            return Err(crash_error());
        }
        f.write_all(bytes)?;
        if crash::check(crash_plan, CrashSite::RemoteTmpSync) {
            return Err(crash_error());
        }
        f.sync_all()?;
        drop(f);
        if crash::check(crash_plan, CrashSite::RemoteRename) {
            return Err(crash_error());
        }
        fs::rename(&tmp, &dst)?;
        // Make the rename itself durable where the platform allows
        // fsyncing a directory handle (Linux does).
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        let mut objects = lock(&self.objects);
        objects.insert((mof, reducer), bytes.len() as u64);
        Ok(())
    }

    /// Sweep unpublished `.tmp` objects a crash left behind.
    pub(crate) fn clean_tmp(&self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".obj.tmp") {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(())
    }

    /// The indexed length of one partition's object, if present.
    pub(crate) fn object_len(&self, mof: u64, reducer: u32) -> Option<u64> {
        let objects = lock(&self.objects);
        objects.get(&(mof, reducer)).copied()
    }

    /// Fill `out` from `offset` of one partition's object.
    pub(crate) fn read_into(
        &self,
        mof: u64,
        reducer: u32,
        offset: u64,
        out: &mut [u8],
    ) -> io::Result<()> {
        fs::File::open(self.path(mof, reducer))?.read_exact_at(out, offset)
    }

    /// Every stored partition with its object length, sorted.
    pub(crate) fn list(&self) -> Vec<((u64, u32), u64)> {
        let objects = lock(&self.objects);
        let mut v: Vec<_> = objects.iter().map(|(k, l)| (*k, *l)).collect();
        drop(objects);
        v.sort_unstable();
        v
    }
}

/// Parse `part-{mof}-{reducer}.obj`; anything else is ignored.
fn parse_object_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix("part-")?.strip_suffix(".obj")?;
    let (mof, reducer) = rest.split_once('-')?;
    Some((mof.parse().ok()?, reducer.parse().ok()?))
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    fn read(store: &RemoteStore, mof: u64, reducer: u32, offset: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        store.read_into(mof, reducer, offset, &mut out).unwrap();
        out
    }

    #[test]
    fn object_names_round_trip() {
        assert_eq!(parse_object_name("part-3-7.obj"), Some((3, 7)));
        assert_eq!(parse_object_name("part-3.obj"), None);
        assert_eq!(parse_object_name("spill.data"), None);
        assert_eq!(parse_object_name("part-x-7.obj"), None);
    }

    #[test]
    fn put_read_and_reattach() {
        let dir = std::env::temp_dir().join(format!("jbs-remote-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RemoteStore::at(&dir).unwrap();
        store.put(1, 2, b"hello world", &None).unwrap();
        assert_eq!(read(&store, 1, 2, 6, 5), b"world");
        // A second store over the same dir sees the object.
        let again = RemoteStore::at(&dir).unwrap();
        assert_eq!(again.list(), vec![((1, 2), 11)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_put_leaves_old_object_and_a_sweepable_tmp() {
        let dir = std::env::temp_dir().join(format!("jbs-remote-crash-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = RemoteStore::at(&dir).unwrap();
        store.put(1, 2, b"old bytes", &None).unwrap();
        let plan = Some(CrashPlan::at(CrashSite::RemoteRename, 0));
        assert!(store.put(1, 2, b"new bytes!", &plan).is_err());
        // The publishing rename never ran: the old object is intact and
        // the complete .tmp sits beside it.
        assert_eq!(read(&store, 1, 2, 0, 9), b"old bytes");
        assert!(dir.join("part-1-2.obj.tmp").exists());
        store.clean_tmp().unwrap();
        assert!(!dir.join("part-1-2.obj.tmp").exists());
        // A reattach ignores tmp names entirely.
        let plan = Some(CrashPlan::at(CrashSite::RemoteTmpWrite, 0));
        assert!(store.put(3, 4, b"torn", &plan).is_err());
        let again = RemoteStore::at(&dir).unwrap();
        assert_eq!(again.list(), vec![((1, 2), 9)]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
