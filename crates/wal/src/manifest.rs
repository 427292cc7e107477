//! [`Manifest`]: the one codec for the workspace's commit files.

use crate::sync_dir;
use std::fmt::{Display, Write as _};
use std::io::{self, Write as _};
use std::path::Path;
use std::str::FromStr;

/// A commit file — an index's `meta.txt`, a shard group's `sharding.txt`,
/// the log's `MANIFEST`, a follower's `REPLICA`: a version line, then one
/// `key value` line per field, written whole ([`Manifest::write`]) and read
/// back into typed values. A wrong version line, or a repeated,
/// missing or unparsable key, is an [`io::ErrorKind::InvalidData`] error
/// naming the file and the key; a key no reader asks for is ignored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    file: &'static str,
    version: &'static str,
    fields: Vec<(String, String)>,
}

impl Manifest {
    /// The file `file`, headed `version`, with no fields yet.
    pub const fn new(file: &'static str, version: &'static str) -> Self {
        Self {
            file,
            version,
            fields: Vec::new(),
        }
    }

    /// Adds the line `key value`.
    pub fn with(mut self, key: &str, value: impl Display) -> Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds the line `key a<sep>b<sep>…` (`key ` for no items).
    pub fn with_list<T: Display>(
        self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        sep: char,
    ) -> Self {
        let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
        self.with(key, items.join(&sep.to_string()))
    }

    /// Replaces `dir/<file>` with the version line and the fields,
    /// atomically: a temp file beside it, fsynced, renamed over it, then
    /// the directory fsynced — after a crash the file holds the old bytes
    /// or the new, never a mix.
    pub fn write(&self, dir: &Path) -> io::Result<()> {
        let mut text = format!("{}\n", self.version);
        for (key, value) in &self.fields {
            let _ = writeln!(text, "{key} {value}");
        }
        let path = dir.join(self.file);
        let tmp = path.with_extension("tmp");
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &path)?;
        sync_dir(dir)
    }

    /// Reads `dir/<file>`; a missing file is the read's `NotFound` error.
    pub fn read(&self, dir: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(dir.join(self.file))?;
        let mut lines = text.lines();
        if lines.next() != Some(self.version) {
            return Err(self.invalid(self.version, "is not the first line"));
        }
        let mut read = Self::new(self.file, self.version);
        for line in lines.filter(|l| !l.is_empty()) {
            let (key, value) = line.split_once(' ').unwrap_or((line, ""));
            if read.raw(key).is_some() {
                return Err(read.invalid(key, "is repeated"));
            }
            read = read.with(key, value);
        }
        Ok(read)
    }

    /// The value of `key`, or `None` without such a line.
    pub fn opt<T: FromStr>(&self, key: &str) -> io::Result<Option<T>> {
        self.raw(key).map(|v| self.parse(key, v)).transpose()
    }

    /// The value of `key`, which must be there.
    pub fn get<T: FromStr>(&self, key: &str) -> io::Result<T> {
        self.opt(key)?
            .ok_or_else(|| self.invalid(key, "is missing"))
    }

    /// The items of the list `key`, or `None` without such a line.
    pub fn opt_list<T: FromStr>(&self, key: &str, sep: char) -> io::Result<Option<Vec<T>>> {
        let items = |raw: &str| {
            let items = raw.trim().split_terminator(sep);
            items.map(|v| self.parse(key, v)).collect()
        };
        self.raw(key).map(items).transpose()
    }

    /// The items of the list `key`, which must be there.
    pub fn list<T: FromStr>(&self, key: &str, sep: char) -> io::Result<Vec<T>> {
        self.opt_list(key, sep)?
            .ok_or_else(|| self.invalid(key, "is missing"))
    }

    fn raw(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v.as_str()))
    }

    fn parse<T: FromStr>(&self, key: &str, value: &str) -> io::Result<T> {
        let unparsable = |_| self.invalid(key, format_args!("has the unparsable value `{value}`"));
        value.trim().parse().map_err(unparsable)
    }

    /// An [`io::ErrorKind::InvalidData`] error about field `key`.
    pub fn invalid(&self, key: &str, what: impl Display) -> io::Error {
        let msg = format!("{}: `{key}` {what}", self.file);
        io::Error::new(io::ErrorKind::InvalidData, msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST: Manifest = Manifest::new("TEST", "test v1");

    /// A fresh directory per call: the tests run in parallel.
    fn fresh_dir() -> std::path::PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("simwal-manifest-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn decode(text: &str) -> io::Result<Manifest> {
        let dir = fresh_dir();
        std::fs::write(dir.join("TEST"), text).unwrap();
        let read = TEST.read(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        read
    }

    fn encode(m: &Manifest) -> String {
        let dir = fresh_dir();
        m.write(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("TEST")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        text
    }

    fn message(e: io::Error) -> String {
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
        e.to_string()
    }

    #[test]
    fn round_trip_keeps_order_and_values() {
        let m = TEST
            .with("epoch", 7u64)
            .with_list("ids", [3u32, 1, 4], ',')
            .with_list("files", ["a.pg", "b.pg"], ' ')
            .with("name", "x");
        let text = encode(&m);
        assert_eq!(
            text,
            "test v1\nepoch 7\nids 3,1,4\nfiles a.pg b.pg\nname x\n"
        );
        let back = decode(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.get::<u64>("epoch").unwrap(), 7);
        assert_eq!(back.list::<u32>("ids", ',').unwrap(), [3, 1, 4]);
        assert_eq!(back.list::<String>("files", ' ').unwrap(), ["a.pg", "b.pg"]);
        assert_eq!(back.get::<String>("name").unwrap(), "x");
    }

    #[test]
    fn a_missing_file_is_not_found() {
        let dir = fresh_dir();
        assert_eq!(TEST.read(&dir).unwrap_err().kind(), io::ErrorKind::NotFound);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_wrong_or_missing_version_line_is_refused() {
        for text in ["", "\n", "test v2\nepoch 1\n", "epoch 1\n", " test v1\n"] {
            let msg = message(decode(text).unwrap_err());
            assert!(msg.contains("TEST") && msg.contains("`test v1`"), "{msg}");
        }
    }

    #[test]
    fn a_repeated_key_is_refused_by_name() {
        let msg = message(decode("test v1\nepoch 1\nfence 2\nepoch 1\n").unwrap_err());
        assert!(msg.contains("`epoch` is repeated"), "{msg}");
    }

    #[test]
    fn a_missing_or_unparsable_key_is_named() {
        let m = decode("test v1\nepoch x1\nids 1,y,3\n").unwrap();
        let missing = message(m.get::<u64>("floor").unwrap_err());
        assert!(missing.contains("`floor` is missing"), "{missing}");
        let missing = message(m.list::<u64>("heap", ',').unwrap_err());
        assert!(missing.contains("`heap` is missing"), "{missing}");
        let bad = message(m.get::<u64>("epoch").unwrap_err());
        assert!(bad.contains("`epoch`") && bad.contains("`x1`"), "{bad}");
        let bad = message(m.list::<u64>("ids", ',').unwrap_err());
        assert!(bad.contains("`ids`") && bad.contains("`y`"), "{bad}");
        // A value that does not fit its type is unparsable too.
        let m = decode("test v1\nepoch -1\n").unwrap();
        assert!(message(m.get::<u64>("epoch").unwrap_err()).contains("`epoch`"));
    }

    #[test]
    fn an_empty_list_reads_as_no_items() {
        for text in ["test v1\nids \n", "test v1\nids\n"] {
            let m = decode(text).unwrap();
            assert_eq!(m.list::<u32>("ids", ',').unwrap(), Vec::<u32>::new());
        }
        assert_eq!(
            encode(&TEST.with_list("ids", Vec::<u32>::new(), ',')),
            "test v1\nids \n"
        );
    }

    #[test]
    fn an_unknown_key_is_ignored_and_an_absent_one_is_none() {
        let m = decode("test v1\nnext_lsn 9\nepoch 4\n\n").unwrap();
        assert_eq!(m.get::<u64>("epoch").unwrap(), 4);
        assert_eq!(m.opt::<u64>("fence").unwrap(), None);
        assert_eq!(m.opt_list::<u64>("deleted", ',').unwrap(), None);
    }
}
