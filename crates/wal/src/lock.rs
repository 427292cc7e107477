//! Advisory directory locks.
//!
//! A `LOCK` file created with `create_new` holds the owning pid. Two
//! processes replaying and appending to the same WAL — or checkpointing
//! the same index directory — would silently corrupt each other, so every
//! opener (`simquery`'s `SeqIndex::open` and `ShardedIndex::open`, and
//! [`crate::Wal::open`]) takes the lock first
//! and surfaces [`crate::WalError::Locked`] instead of proceeding.
//! Read-only consumers use the `open_read_only` variants, which skip the
//! lock: rename-based atomic saves keep a concurrent reader consistent.
//!
//! The lock is advisory and crash-tolerant: if the recorded pid is no
//! longer alive (checked via `/proc/<pid>` on Linux) the stale file is
//! removed and acquisition retried. Dropping the guard releases the lock;
//! a missing file at drop time is tolerated, since tests and operators
//! legitimately remove whole directories while a guard is live.

use crate::WalError;
use std::fs;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};

/// Name of the lock file inside a locked directory.
pub const LOCK_FILE: &str = "LOCK";

/// An acquired advisory lock on one directory. Released on drop.
#[derive(Debug)]
pub struct DirLock {
    path: PathBuf,
}

impl DirLock {
    /// Acquires the lock for `dir`, creating the directory if needed.
    ///
    /// Fails with [`WalError::Locked`] when another *live* process holds
    /// it; a lock left behind by a dead process is stolen. The
    /// steal-and-retry loop is bounded so two racing openers cannot spin
    /// forever on each other's fresh locks.
    pub fn acquire(dir: &Path) -> Result<Self, WalError> {
        fs::create_dir_all(dir)?;
        let path = dir.join(LOCK_FILE);
        for _ in 0..4 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(f) => {
                    use std::io::Write as _;
                    let mut f = f;
                    let _ = write!(f, "{}", std::process::id());
                    let _ = f.sync_all();
                    return Ok(Self { path });
                }
                Err(e) if e.kind() == ErrorKind::AlreadyExists => {
                    let pid = fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match pid {
                        Some(pid) if pid_alive(pid) => {
                            return Err(WalError::Locked {
                                dir: dir.to_path_buf(),
                                pid,
                            })
                        }
                        // Dead owner or unreadable file: steal and retry.
                        // The unlink can race another stealer; ignore.
                        _ => {
                            let _ = fs::remove_file(&path);
                        }
                    }
                }
                Err(e) => return Err(WalError::Io(e)),
            }
        }
        Err(WalError::Locked {
            dir: dir.to_path_buf(),
            pid: 0,
        })
    }

    /// The directory this guard protects.
    pub fn dir(&self) -> &Path {
        self.path.parent().unwrap_or_else(|| Path::new("."))
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        // Tolerate a vanished file (the whole directory may be gone).
        let _ = fs::remove_file(&self.path);
    }
}

/// Whether `pid` names a live process. Uses `/proc` where available;
/// elsewhere assumes dead, which errs toward stealing a lock rather than
/// wedging recovery behind a pid file no one can ever clear.
fn pid_alive(pid: u32) -> bool {
    if pid == std::process::id() {
        return true;
    }
    if Path::new("/proc").is_dir() {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("simwal-lock-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn second_acquire_reports_owner() {
        let dir = tmp("second");
        let guard = DirLock::acquire(&dir).unwrap();
        match DirLock::acquire(&dir) {
            Err(WalError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(guard);
        let again = DirLock::acquire(&dir).unwrap();
        drop(again);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_stolen() {
        let dir = tmp("stale");
        fs::create_dir_all(&dir).unwrap();
        // Pid u32::MAX - 1 exceeds any real pid_max; the owner is dead.
        fs::write(dir.join(LOCK_FILE), format!("{}", u32::MAX - 1)).unwrap();
        let guard = DirLock::acquire(&dir).expect("stale lock should be stolen");
        drop(guard);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_lock_is_stolen() {
        let dir = tmp("garbage");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(LOCK_FILE), "not a pid").unwrap();
        let guard = DirLock::acquire(&dir).unwrap();
        drop(guard);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_tolerates_missing_file() {
        let dir = tmp("missing");
        let guard = DirLock::acquire(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        drop(guard); // must not panic
    }
}
