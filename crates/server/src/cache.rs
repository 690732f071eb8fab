//! The content-addressed result cache: exact LRU with hit/miss/eviction
//! counters, plus the persistent segment store that makes it survive
//! restarts.
//!
//! The server keys this cache by [`CacheKey`] —
//! the view's content hash plus the canonical parameter string — and stores
//! the *serialized* result text (an `Arc<String>`), so a cache hit replays
//! the original response bytes without re-encoding, let alone re-solving,
//! anything.
//!
//! The in-memory half ([`LruCache`]) is a plain recency-stamped map:
//! `O(log n)` per operation via a `BTreeMap` recency index, exact LRU order
//! (not an approximation), no external dependencies, and single-threaded by
//! design — the server wraps it in a `Mutex`, which is never held across a
//! solve.
//!
//! The on-disk half ([`SegmentStore`]) is a write-through append-only
//! segment file. Both halves of a cache entry are already stable text —
//! the key is `SignatureView::cache_key` (a content hash) plus the
//! canonical parameter string, the value is the canonical serialized
//! result — so a record is just those three fields, length-prefixed. Every
//! insert appends a `P` (put) record, every eviction a `D` (tombstone);
//! on startup the file is replayed in append order into the LRU, giving a
//! restarted server warm, byte-identical answers. When dead records
//! (superseded puts, evicted puts, tombstones) exceed a threshold, the
//! segment is compacted: rewritten with only the live entries, oldest
//! first, then atomically renamed over the old file. A truncated tail
//! (crash mid-append) is detected during replay and cut off.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::hash::Hash;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use strudel_core::wire::DEFAULT_TENANT;

use crate::protocol::CacheKey;

/// When the segment store fsyncs its appends (`serve --fsync …`).
///
/// Write-through alone only hands records to the OS; until an fsync they
/// live in the page cache, and a machine crash (not just a process crash)
/// can lose every record since the last sync. The policy trades that window
/// against write latency:
///
/// | policy          | durability window       | cost                       |
/// |-----------------|-------------------------|----------------------------|
/// | `always`        | none (sync per record)  | one fsync per insert/evict |
/// | `interval:<ms>` | at most `<ms>` of work  | ≤ 1000/`<ms>` fsyncs/s     |
/// | `off`           | until shutdown/flush    | none in steady state       |
///
/// The default is `interval:100` — a group fsync batching all appends of
/// the last 100 ms into one disk barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync after every appended record.
    Always,
    /// Group fsync: sync dirty appends once the interval has elapsed.
    Interval(Duration),
    /// Never fsync during operation (shutdown still flushes).
    Off,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Interval(Duration::from_millis(100))
    }
}

impl FsyncPolicy {
    /// Parses the CLI notation: `always`, `off`, or `interval:<ms>`.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "off" => Ok(FsyncPolicy::Off),
            _ => match text.strip_prefix("interval:") {
                Some(ms) => {
                    let ms: u64 = ms
                        .parse()
                        .map_err(|_| format!("invalid interval in '{text}'"))?;
                    if ms == 0 {
                        return Err("interval must be at least 1 ms (use 'always')".to_owned());
                    }
                    Ok(FsyncPolicy::Interval(Duration::from_millis(ms)))
                }
                None => Err(format!(
                    "expected 'always', 'off', or 'interval:<ms>', got '{text}'"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => f.write_str("always"),
            FsyncPolicy::Interval(d) => write!(f, "interval:{}", d.as_millis()),
            FsyncPolicy::Off => f.write_str("off"),
        }
    }
}

/// Counter snapshot of a cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries pushed out by capacity pressure.
    pub evictions: u64,
    /// Entries ever inserted (including replacements).
    pub insertions: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum resident entries.
    pub capacity: usize,
}

/// Per-owner (tenant) accounting inside an [`LruCache`]: residency, the
/// reserved floor granted by the weighted-eviction policy, and evictions
/// charged against the owner (part of the `status` tenants block).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OwnerCacheStats {
    /// The owner (tenant) name.
    pub name: String,
    /// Entries currently resident for this owner.
    pub entries: usize,
    /// The owner's reserved entry count — the weighted-eviction policy
    /// never evicts the owner below this floor to make room for others.
    pub reserved: usize,
    /// This owner's entries pushed out by capacity pressure.
    pub evictions: u64,
}

/// An entry pushed out of an [`LruCache`] by capacity pressure, tagged with
/// the owner it was resident under (the persistent layer tombstones the key
/// and the registry charges the eviction to the owner).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evicted<K, V> {
    /// The evicted key.
    pub key: K,
    /// The evicted value.
    pub value: V,
    /// The owner (tenant) the entry belonged to.
    pub owner: String,
}

#[derive(Debug)]
struct OwnerSlot {
    name: String,
    count: usize,
    reserved: usize,
    evictions: u64,
}

/// An exact least-recently-used cache with weighted per-owner partitioning.
///
/// Every entry is resident *under an owner* (a tenant name; plain
/// [`Self::insert`] uses the reserved default owner). Owners may be granted
/// weights via [`Self::set_weights`], which translate into reserved entry
/// floors: when the cache is full, the victim is the globally
/// least-recently-used entry **among owners strictly over their reserve**,
/// falling back to the inserting owner's own LRU entry, and only then to
/// the plain global LRU entry. With no weights configured every reserve is
/// zero, every owner is "over", and the policy degenerates to exact global
/// LRU — byte-for-byte the pre-tenancy behavior.
#[derive(Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, (V, u64, u32)>,
    recency: BTreeMap<u64, K>,
    owners: Vec<OwnerSlot>,
    owner_ids: HashMap<String, u32>,
    next_stamp: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    insertions: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries. A capacity of 0
    /// disables caching (every insert is immediately evicted).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            map: HashMap::new(),
            recency: BTreeMap::new(),
            owners: Vec::new(),
            owner_ids: HashMap::new(),
            next_stamp: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
        }
    }

    fn stamp(&mut self) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        stamp
    }

    fn owner_id(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.owner_ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.owners.len()).expect("fewer than 2^32 owners");
        self.owners.push(OwnerSlot {
            name: name.to_owned(),
            count: 0,
            reserved: 0,
            evictions: 0,
        });
        self.owner_ids.insert(name.to_owned(), id);
        id
    }

    /// Installs the weighted partitioning policy: each `(owner, weight)`
    /// pair reserves `capacity × weight / Σweights` entries (floored) for
    /// that owner. Owners absent from `weights` (including the lazily
    /// created default) keep a reserve of zero. Calling this again replaces
    /// the previous reserves wholesale.
    pub fn set_weights(&mut self, weights: &[(String, u64)]) {
        for slot in &mut self.owners {
            slot.reserved = 0;
        }
        let total: u64 = weights.iter().map(|(_, w)| *w).sum();
        if total == 0 {
            return;
        }
        for (name, weight) in weights {
            let id = self.owner_id(name);
            let reserved = (self.capacity as u64).saturating_mul(*weight) / total;
            self.owners[id as usize].reserved = usize::try_from(reserved).unwrap_or(usize::MAX);
        }
    }

    /// Looks up a key, marking it most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        let stamp = self.stamp();
        match self.map.get_mut(key) {
            Some((value, old_stamp, _)) => {
                self.recency.remove(old_stamp);
                self.recency.insert(stamp, key.clone());
                *old_stamp = stamp;
                self.hits += 1;
                Some(value.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Picks the eviction victim's recency stamp under the weighted
    /// policy: the oldest entry whose owner is strictly over its reserve;
    /// else the inserting owner's own oldest entry (the owner is about to
    /// grow past what the others will yield, so it eats its own tail);
    /// else — every resident owner at or under reserve, which can only
    /// happen when floors round down — the plain global LRU entry.
    fn pick_victim(&self, inserting: u32) -> Option<u64> {
        let mut own_oldest = None;
        for (&stamp, key) in &self.recency {
            let (_, _, owner) = &self.map[key];
            let slot = &self.owners[*owner as usize];
            if slot.count > slot.reserved {
                return Some(stamp);
            }
            if own_oldest.is_none() && *owner == inserting {
                own_oldest = Some(stamp);
            }
        }
        own_oldest.or_else(|| self.recency.keys().next().copied())
    }

    /// Inserts a value under `owner`, evicting per the weighted policy
    /// when full. Inserting an existing key replaces its value, freshens
    /// it, and transfers it to `owner`.
    ///
    /// Returns the evicted entry, if capacity pressure pushed one out — the
    /// persistent layer tombstones it so disk stays in sync with memory.
    /// (With capacity 0 the inserted entry itself comes straight back.)
    pub fn insert_for(&mut self, owner: &str, key: K, value: V) -> Option<Evicted<K, V>> {
        self.insertions += 1;
        let owner_id = self.owner_id(owner);
        let stamp = self.stamp();
        let mut evicted = None;
        if let Some((_, old_stamp, old_owner)) = self.map.remove(&key) {
            self.recency.remove(&old_stamp);
            self.owners[old_owner as usize].count -= 1;
        } else if self.map.len() >= self.capacity {
            if let Some(oldest) = self.pick_victim(owner_id) {
                let victim = self.recency.remove(&oldest).expect("stamp just seen");
                let (value, _, victim_owner) =
                    self.map.remove(&victim).expect("victim is resident");
                self.evictions += 1;
                let slot = &mut self.owners[victim_owner as usize];
                slot.count -= 1;
                slot.evictions += 1;
                evicted = Some(Evicted {
                    key: victim,
                    value,
                    owner: slot.name.clone(),
                });
            }
            if self.capacity == 0 {
                // Nothing can be resident; count the insert as an
                // instant eviction so the arithmetic stays honest.
                self.evictions += 1;
                let slot = &mut self.owners[owner_id as usize];
                slot.evictions += 1;
                let owner = slot.name.clone();
                return Some(Evicted { key, value, owner });
            }
        }
        self.map.insert(key.clone(), (value, stamp, owner_id));
        self.owners[owner_id as usize].count += 1;
        self.recency.insert(stamp, key);
        evicted
    }

    /// Inserts a value under the default owner (the pre-tenancy behavior,
    /// kept for single-tenant callers and tests). See [`Self::insert_for`].
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        self.insert_for(DEFAULT_TENANT, key, value)
            .map(|evicted| (evicted.key, evicted.value))
    }

    /// Whether a key is resident, without touching recency or counters.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Removes a key outright, returning its value if it was resident.
    ///
    /// This is an externally-driven removal (a follower applying the
    /// leader's replicated tombstone), not capacity pressure, so it does
    /// not count as an eviction.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (value, stamp, owner) = self.map.remove(key)?;
        self.recency.remove(&stamp);
        self.owners[owner as usize].count -= 1;
        Some(value)
    }

    /// Every resident entry in LRU order (least recently used first),
    /// without touching recency or counters. Compaction writes the segment
    /// in this order so a replay reconstructs the same recency ranking.
    pub fn snapshot_lru_order(&self) -> Vec<(K, V)> {
        self.recency
            .values()
            .map(|key| {
                let (value, _, _) = &self.map[key];
                (key.clone(), value.clone())
            })
            .collect()
    }

    /// [`Self::snapshot_lru_order`] with each entry's owner — what the
    /// server's compaction feeds the segment store so the rewritten file
    /// preserves every entry's tenant tag.
    pub fn snapshot_lru_order_with_owners(&self) -> Vec<(K, V, String)> {
        self.recency
            .values()
            .map(|key| {
                let (value, _, owner) = &self.map[key];
                let name = self.owners[*owner as usize].name.clone();
                (key.clone(), value.clone(), name)
            })
            .collect()
    }

    /// Per-owner accounting, in owner-registration order. Owners with no
    /// residency, reserve, or evictions yet still appear once registered
    /// (via an insert or [`Self::set_weights`]).
    pub fn owner_stats(&self) -> Vec<OwnerCacheStats> {
        self.owners
            .iter()
            .map(|slot| OwnerCacheStats {
                name: slot.name.clone(),
                entries: slot.count,
                reserved: slot.reserved,
                evictions: slot.evictions,
            })
            .collect()
    }

    /// The current counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            insertions: self.insertions,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

/// Counter snapshot of a [`SegmentStore`] (part of the `status` payload).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Entries replayed into the cache at startup.
    pub replayed: u64,
    /// Put records appended since startup.
    pub puts: u64,
    /// Tombstone records appended since startup.
    pub tombstones: u64,
    /// Dead records currently in the file (superseded/evicted puts and
    /// every tombstone) — the compaction pressure gauge.
    pub dead: u64,
    /// Keys the segment currently considers live.
    pub live: u64,
    /// Compactions performed since startup.
    pub compactions: u64,
    /// Current size of the segment file, in bytes.
    pub file_bytes: u64,
    /// Fsync barriers issued since startup (per the [`FsyncPolicy`]).
    pub fsyncs: u64,
    /// Records with an unknown kind skipped during replay — a segment
    /// written by a newer (or older) version stays loadable; the entries
    /// we cannot parse are simply not warmed.
    pub skipped_records: u64,
    /// The replication sequence number recorded by the newest compaction
    /// checkpoint in the file, if any (0 when none) — lets a restarted
    /// leader resume its publication counter past everything compacted.
    pub checkpoint_seq: u64,
}

/// The write-through persistent half of the result cache: an append-only
/// segment file of `P`ut and `D`elete records, plus tenant-tagged `T` puts.
///
/// Record framing is a header line with length prefixes, then the exact
/// payload bytes (which may themselves contain anything):
///
/// ```text
/// P <view-hash-hex> <params-bytes> <result-bytes>\n<params>\n<result>\n
/// D <view-hash-hex> <params-bytes>\n<params>\n
/// C <seq>\n
/// T <view-hash-hex> <blob-bytes>\n<tenant>\n<params>\n<result>\n
/// ```
///
/// `C` is a compaction checkpoint: appended right after a compaction (and
/// streamed to replication followers), it carries the replication sequence
/// number at that point so a restarted leader resumes its counter instead
/// of reissuing sequence numbers followers have already seen. Replay treats
/// it as metadata — it neither adds an entry nor counts as dead weight.
///
/// `T` is a put owned by a non-default tenant: its single length prefix
/// covers the whole `tenant\nparams\nresult` blob, so even a reader that
/// predates the kind can skip the record wholesale. Default-tenant puts
/// keep the legacy `P` encoding — a single-tenant deployment's segment is
/// byte-identical before and after tenancy, in both directions.
///
/// Replay is forward compatible: an *unknown* record kind whose framing is
/// intact (a header whose final field is the payload length, or a bare
/// metadata line) is skipped and counted in
/// [`PersistStats::skipped_records`] rather than treated as corruption;
/// only a record that cannot be framed truncates the tail.
///
/// The store tracks which keys are live so it can count dead records; the
/// in-memory [`LruCache`] stays the authority on residency, and the server
/// keeps the two in lockstep (insert → put, evict → tombstone).
#[derive(Debug)]
pub struct SegmentStore {
    path: PathBuf,
    file: File,
    live: HashSet<CacheKey>,
    dead_threshold: u64,
    replayed: u64,
    puts: u64,
    tombstones: u64,
    dead: u64,
    compactions: u64,
    file_bytes: u64,
    policy: FsyncPolicy,
    /// Whether bytes have been appended since the last sync barrier.
    dirty: bool,
    last_sync: Instant,
    fsyncs: u64,
    skipped: u64,
    checkpoint_seq: u64,
}

/// One entry surviving a segment replay: `(key, result, tenant)`, in
/// append order — ready for [`LruCache::insert_for`].
pub type ReplayedEntry = (CacheKey, String, String);

impl SegmentStore {
    /// Opens (creating if absent) the segment at `path` and replays it,
    /// returning the store plus the surviving [`ReplayedEntry`] rows in
    /// append order — the caller inserts them into its
    /// [`LruCache`] in that order, which reconstructs the pre-restart
    /// recency ranking *and* the per-tenant accounting. A torn tail record
    /// (crash mid-append) is truncated away; whole records of an unknown
    /// kind are skipped and counted, not treated as corruption.
    ///
    /// `dead_threshold` is the number of dead records that triggers
    /// compaction (see [`Self::should_compact`]); `policy` decides when
    /// appends are fsynced (see [`FsyncPolicy`]).
    pub fn open(
        path: impl Into<PathBuf>,
        dead_threshold: u64,
        policy: FsyncPolicy,
    ) -> std::io::Result<(Self, Vec<ReplayedEntry>)> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        // Replay: keep the *last* put per key (tagged with its record
        // index, so append order — and with it the recency ranking — can
        // be reconstructed by one sort at the end; maintaining an ordered
        // list during the scan would be O(dead × live)), and drop
        // tombstoned keys.
        let mut latest: HashMap<CacheKey, (u64, String, String)> = HashMap::new();
        let mut records: u64 = 0;
        let mut skipped = 0u64;
        let mut checkpoint_seq = 0u64;
        let mut good = 0usize; // offset after the last whole record
        let mut pos = 0usize;
        while pos < bytes.len() {
            match parse_record(&bytes, pos) {
                Parsed::Rec(record, next) => {
                    match record {
                        Record::Put(key, text, tenant) => {
                            records += 1;
                            latest.insert(key, (records, text, tenant));
                        }
                        Record::Delete(key) => {
                            records += 1;
                            latest.remove(&key);
                        }
                        // Metadata, not data: remember the newest one, and
                        // keep it out of the dead-record arithmetic.
                        Record::Checkpoint(seq) => checkpoint_seq = checkpoint_seq.max(seq),
                    }
                    pos = next;
                    good = next;
                }
                // A whole record from a foreign version: step over it.
                Parsed::Skipped(next) => {
                    skipped += 1;
                    pos = next;
                    good = next;
                }
                Parsed::Torn => break, // torn tail
            }
        }
        if good < bytes.len() {
            // Cut the torn record off so the next append starts clean.
            file.set_len(good as u64)?;
        }
        file.seek(SeekFrom::End(0))?;

        let mut ordered: Vec<(u64, CacheKey, String, String)> = latest
            .into_iter()
            .map(|(key, (seq, text, tenant))| (seq, key, text, tenant))
            .collect();
        ordered.sort_unstable_by_key(|(seq, _, _, _)| *seq);
        let entries: Vec<(CacheKey, String, String)> = ordered
            .into_iter()
            .map(|(_, key, text, tenant)| (key, text, tenant))
            .collect();
        let live: HashSet<CacheKey> = entries.iter().map(|(k, _, _)| k.clone()).collect();
        let store = SegmentStore {
            path,
            file,
            dead_threshold,
            replayed: entries.len() as u64,
            puts: 0,
            tombstones: 0,
            dead: records - entries.len() as u64,
            live,
            compactions: 0,
            file_bytes: good as u64,
            policy,
            dirty: false,
            last_sync: Instant::now(),
            fsyncs: 0,
            skipped,
            checkpoint_seq,
        };
        Ok((store, entries))
    }

    /// Issues one fsync barrier (`fdatasync`-grade) and resets the dirty
    /// window. Not a full `sync_all`: the file's length only grows, and
    /// metadata is settled by the shutdown [`Self::flush`].
    fn sync_now(&mut self) -> std::io::Result<()> {
        // Re-arm the window before attempting: a persistently failing
        // fsync (classic post-EIO disk behavior) keeps `dirty` set, and
        // if `last_sync` stayed stale too, [`Self::sync_due_in`] would
        // report permanently-due and the event loop — whose wait timeout
        // it bounds — would spin retrying at full speed. This way a
        // failing barrier is retried once per interval, not per round.
        self.last_sync = Instant::now();
        self.file.sync_data()?;
        self.fsyncs += 1;
        self.dirty = false;
        Ok(())
    }

    /// Applies the fsync policy after an append: `always` syncs here;
    /// `interval` syncs once the window has elapsed (the event loop's
    /// [`Self::tick_sync`] covers the case where writes stop arriving).
    fn after_append(&mut self) -> std::io::Result<()> {
        self.dirty = true;
        match self.policy {
            FsyncPolicy::Always => self.sync_now(),
            FsyncPolicy::Interval(window) if self.last_sync.elapsed() >= window => self.sync_now(),
            FsyncPolicy::Interval(_) | FsyncPolicy::Off => Ok(()),
        }
    }

    /// How long until [`Self::tick_sync`] has work to do; `None` when
    /// nothing is dirty (or the policy never defers). The event loop uses
    /// this to bound its poller wait instead of sweeping on a clock.
    pub fn sync_due_in(&self) -> Option<Duration> {
        match self.policy {
            FsyncPolicy::Interval(window) if self.dirty => {
                Some(window.saturating_sub(self.last_sync.elapsed()))
            }
            _ => None,
        }
    }

    /// Interval-policy maintenance: syncs dirty appends whose window has
    /// elapsed. The server's event loop calls this between rounds so the
    /// last write of a burst is not left waiting for the next request.
    pub fn tick_sync(&mut self) -> std::io::Result<()> {
        if let FsyncPolicy::Interval(window) = self.policy {
            if self.dirty && self.last_sync.elapsed() >= window {
                return self.sync_now();
            }
        }
        Ok(())
    }

    /// Appends a put record (write-through on cache insert) under the
    /// default tenant — the legacy single-tenant entry point, kept so
    /// pre-tenancy callers and tests stay byte-compatible.
    pub fn record_put(&mut self, key: &CacheKey, result_text: &str) -> std::io::Result<()> {
        self.record_put_for(key, result_text, DEFAULT_TENANT)
    }

    /// Appends a put record owned by `tenant` (write-through on cache
    /// insert). The default tenant writes the legacy `P` encoding; any
    /// other tenant writes a self-framing `T` record. Re-putting a live
    /// key supersedes its previous record, which becomes dead weight.
    pub fn record_put_for(
        &mut self,
        key: &CacheKey,
        result_text: &str,
        tenant: &str,
    ) -> std::io::Result<()> {
        if !self.live.insert(key.clone()) {
            self.dead += 1; // the superseded put
        }
        let record = encode_put(key, result_text, tenant);
        self.file.write_all(&record)?;
        self.puts += 1;
        self.file_bytes += record.len() as u64;
        self.after_append()
    }

    /// Appends a tombstone (write-through on cache eviction). Both the
    /// tombstone and the put it kills are dead weight until compaction.
    pub fn record_evict(&mut self, key: &CacheKey) -> std::io::Result<()> {
        if self.live.remove(key) {
            self.dead += 1; // the evicted put
        }
        let record = encode_delete(key);
        self.file.write_all(&record)?;
        self.tombstones += 1;
        self.dead += 1; // the tombstone itself
        self.file_bytes += record.len() as u64;
        self.after_append()
    }

    /// Whether dead records have crossed the threshold (and outnumber the
    /// live entries, so compaction actually shrinks the file).
    pub fn should_compact(&self) -> bool {
        self.dead >= self.dead_threshold && self.dead > self.live.len() as u64
    }

    /// Rewrites the segment with only `entries` (the caller's live set as
    /// `(key, result, tenant)`, in the order replay should re-insert them
    /// — LRU first), atomically replacing the old file via a sibling temp
    /// file and rename, then appends a `C` checkpoint carrying
    /// `checkpoint_seq` (the replication publication counter at this
    /// point; pass 0 when replication is off). Unknown-kind records that
    /// replay skipped are dropped by the rewrite.
    pub fn compact<'a>(
        &mut self,
        entries: impl IntoIterator<Item = (&'a CacheKey, &'a str, &'a str)>,
        checkpoint_seq: u64,
    ) -> std::io::Result<()> {
        let tmp_path = self.path.with_extension("compact");
        let mut tmp = File::create(&tmp_path)?;
        let mut live = HashSet::new();
        let mut written = 0u64;
        for (key, text, tenant) in entries {
            let record = encode_put(key, text, tenant);
            tmp.write_all(&record)?;
            written += record.len() as u64;
            live.insert(key.clone());
        }
        let checkpoint = encode_checkpoint(checkpoint_seq);
        tmp.write_all(&checkpoint)?;
        written += checkpoint.len() as u64;
        tmp.sync_all()?;
        std::fs::rename(&tmp_path, &self.path)?;
        // Reopen the handle on the new file; the old one points at the
        // unlinked inode.
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.live = live;
        self.dead = 0;
        self.compactions += 1;
        self.file_bytes = written;
        self.dirty = false;
        self.last_sync = Instant::now();
        self.checkpoint_seq = self.checkpoint_seq.max(checkpoint_seq);
        Ok(())
    }

    /// Flushes and fsyncs the segment (the graceful-shutdown barrier).
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()?;
        self.file.sync_all()?;
        self.fsyncs += 1;
        self.dirty = false;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// The current counter snapshot.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            replayed: self.replayed,
            puts: self.puts,
            tombstones: self.tombstones,
            dead: self.dead,
            live: self.live.len() as u64,
            compactions: self.compactions,
            file_bytes: self.file_bytes,
            fsyncs: self.fsyncs,
            skipped_records: self.skipped,
            checkpoint_seq: self.checkpoint_seq,
        }
    }
}

enum Record {
    /// A put: key, serialized result, owning tenant.
    Put(CacheKey, String, String),
    Delete(CacheKey),
    Checkpoint(u64),
}

/// The outcome of parsing one record during replay.
enum Parsed {
    /// A record this version understands, and the offset just past it.
    Rec(Record, usize),
    /// A whole record of an unknown kind (foreign version); the offset
    /// just past it. Replay steps over it and counts it.
    Skipped(usize),
    /// A torn or corrupt record — replay stops and truncates here.
    Torn,
}

fn encode_put(key: &CacheKey, result_text: &str, tenant: &str) -> Vec<u8> {
    if tenant == DEFAULT_TENANT {
        // Legacy encoding: a default-tenant segment stays byte-identical
        // to one written before tenancy existed.
        let mut out = Vec::with_capacity(key.params.len() + result_text.len() + 64);
        out.extend_from_slice(
            format!(
                "P {:032x} {} {}\n",
                key.view,
                key.params.len(),
                result_text.len()
            )
            .as_bytes(),
        );
        out.extend_from_slice(key.params.as_bytes());
        out.push(b'\n');
        out.extend_from_slice(result_text.as_bytes());
        out.push(b'\n');
        return out;
    }
    // Tenant-tagged put. One length prefix covers the whole
    // tenant\nparams\nresult blob, so the header's *final* field is the
    // payload length — exactly the shape the unknown-kind skipper
    // understands, which is what makes `T` backward compatible: an old
    // reader skips it instead of truncating.
    let blob_len = tenant.len() + 1 + key.params.len() + 1 + result_text.len();
    let mut out = Vec::with_capacity(blob_len + 48);
    out.extend_from_slice(format!("T {:032x} {blob_len}\n", key.view).as_bytes());
    out.extend_from_slice(tenant.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(key.params.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(result_text.as_bytes());
    out.push(b'\n');
    out
}

fn encode_delete(key: &CacheKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(key.params.len() + 48);
    out.extend_from_slice(format!("D {:032x} {}\n", key.view, key.params.len()).as_bytes());
    out.extend_from_slice(key.params.as_bytes());
    out.push(b'\n');
    out
}

fn encode_checkpoint(seq: u64) -> Vec<u8> {
    format!("C {seq}\n").into_bytes()
}

/// Parses one record starting at `pos`: a known record, a skippable
/// unknown one, or a torn/corrupt record (replay stops and truncates).
fn parse_record(bytes: &[u8], pos: usize) -> Parsed {
    let Some(newline) = bytes[pos..].iter().position(|&b| b == b'\n') else {
        return Parsed::Torn;
    };
    let header_end = pos + newline;
    let Ok(header) = std::str::from_utf8(&bytes[pos..header_end]) else {
        return Parsed::Torn;
    };
    let kind = header.split(' ').next().unwrap_or("");
    match kind {
        "P" | "D" | "C" | "T" => match parse_known(kind, header, bytes, header_end) {
            Some(parsed) => Parsed::Rec(parsed.0, parsed.1),
            None => Parsed::Torn,
        },
        _ => parse_unknown(kind, header, bytes, header_end),
    }
}

/// Parses the body of a record whose kind this version understands.
fn parse_known(
    kind: &str,
    header: &str,
    bytes: &[u8],
    header_end: usize,
) -> Option<(Record, usize)> {
    let mut fields = header.split(' ');
    fields.next(); // the kind, already dispatched on
    if kind == "C" {
        let seq: u64 = fields.next()?.parse().ok()?;
        if fields.next().is_some() {
            return None;
        }
        return Some((Record::Checkpoint(seq), header_end + 1));
    }
    let view = u128::from_str_radix(fields.next()?, 16).ok()?;
    let first_len: usize = fields.next()?.parse().ok()?;
    let take = |start: usize, len: usize| -> Option<(String, usize)> {
        let end = start.checked_add(len)?;
        if end >= bytes.len() || bytes[end] != b'\n' {
            return None;
        }
        let text = String::from_utf8(bytes[start..end].to_vec()).ok()?;
        Some((text, end + 1))
    };
    match kind {
        "P" => {
            let result_len: usize = fields.next()?.parse().ok()?;
            if fields.next().is_some() {
                return None;
            }
            let (params, after_params) = take(header_end + 1, first_len)?;
            let (result, next) = take(after_params, result_len)?;
            Some((
                Record::Put(CacheKey { view, params }, result, DEFAULT_TENANT.to_owned()),
                next,
            ))
        }
        "D" => {
            if fields.next().is_some() {
                return None;
            }
            let (params, next) = take(header_end + 1, first_len)?;
            Some((Record::Delete(CacheKey { view, params }), next))
        }
        "T" => {
            if fields.next().is_some() {
                return None;
            }
            let (blob, next) = take(header_end + 1, first_len)?;
            let (tenant, rest) = blob.split_once('\n')?;
            let (params, result) = rest.split_once('\n')?;
            Some((
                Record::Put(
                    CacheKey {
                        view,
                        params: params.to_owned(),
                    },
                    result.to_owned(),
                    tenant.to_owned(),
                ),
                next,
            ))
        }
        _ => None,
    }
}

/// Decides whether an unknown record kind can be stepped over. The rule
/// every future kind must honor (and `T` does): an alphabetic kind tag,
/// and either a header whose *final* field is the byte length of a single
/// newline-terminated payload, or a bare header line with no payload
/// (non-numeric fields — metadata like `C`). Anything else is
/// indistinguishable from corruption and truncates as a torn tail.
fn parse_unknown(kind: &str, header: &str, bytes: &[u8], header_end: usize) -> Parsed {
    if kind.is_empty() || !kind.chars().all(|c| c.is_ascii_alphabetic()) {
        return Parsed::Torn;
    }
    let last = header.split(' ').next_back().unwrap_or("");
    if last != kind {
        if let Ok(len) = last.parse::<usize>() {
            let start = header_end + 1;
            let Some(end) = start.checked_add(len) else {
                return Parsed::Torn;
            };
            if end < bytes.len() && bytes[end] == b'\n' {
                return Parsed::Skipped(end + 1);
            }
            return Parsed::Torn;
        }
    }
    // No payload length to honor: a metadata-style header-only record.
    Parsed::Skipped(header_end + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_misses_are_counted() {
        let mut cache: LruCache<&str, i32> = LruCache::new(4);
        assert_eq!(cache.get(&"a"), None);
        cache.insert("a", 1);
        assert_eq!(cache.get(&"a"), Some(1));
        assert_eq!(cache.get(&"a"), Some(1));
        assert_eq!(cache.get(&"b"), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.insertions, 1);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn eviction_follows_exact_lru_order() {
        let mut cache: LruCache<&str, i32> = LruCache::new(3);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("c", 3);
        // Touch "a" so "b" is now the least recently used.
        assert_eq!(cache.get(&"a"), Some(1));
        cache.insert("d", 4);
        assert!(!cache.contains(&"b"), "b was LRU and must be evicted");
        assert!(cache.contains(&"a"));
        assert!(cache.contains(&"c"));
        assert!(cache.contains(&"d"));
        assert_eq!(cache.stats().evictions, 1);

        // Next eviction takes "c" (oldest untouched), not "a".
        cache.insert("e", 5);
        assert!(!cache.contains(&"c"));
        assert!(cache.contains(&"a"));
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn reinserting_replaces_and_freshens() {
        let mut cache: LruCache<&str, i32> = LruCache::new(2);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("a", 10); // replace, no eviction
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.get(&"a"), Some(10));
        // "b" is LRU now ("a" was freshened twice).
        cache.insert("c", 3);
        assert!(!cache.contains(&"b"));
        assert!(cache.contains(&"a"));
    }

    #[test]
    fn zero_capacity_disables_residency() {
        let mut cache: LruCache<&str, i32> = LruCache::new(0);
        cache.insert("a", 1);
        assert_eq!(cache.get(&"a"), None);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn heavy_traffic_keeps_entries_at_capacity() {
        let mut cache: LruCache<u32, u32> = LruCache::new(8);
        for i in 0..1000u32 {
            cache.insert(i, i);
            // The most recent 8 inserts are always resident.
            assert!(cache.contains(&i));
            assert!(cache.stats().entries <= 8);
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 8);
        assert_eq!(stats.evictions, 1000 - 8);
        for survivor in 992..1000 {
            assert!(cache.contains(&survivor));
        }
    }

    #[test]
    fn insert_reports_the_evicted_entry() {
        let mut cache: LruCache<&str, i32> = LruCache::new(2);
        assert_eq!(cache.insert("a", 1), None);
        assert_eq!(cache.insert("b", 2), None);
        assert_eq!(cache.insert("a", 10), None, "replacement evicts nothing");
        assert_eq!(cache.insert("c", 3), Some(("b", 2)), "b was LRU");
    }

    #[test]
    fn snapshot_is_in_lru_order() {
        let mut cache: LruCache<&str, i32> = LruCache::new(4);
        cache.insert("a", 1);
        cache.insert("b", 2);
        cache.insert("c", 3);
        cache.get(&"a"); // freshen: order is now b, c, a
        let order: Vec<&str> = cache
            .snapshot_lru_order()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(order, vec!["b", "c", "a"]);
    }

    fn key(n: u32) -> CacheKey {
        CacheKey {
            view: 0xfeed_0000 + u128::from(n),
            params: format!("refine|hybrid|cov|{n}|1/2|||"),
        }
    }

    fn temp_segment(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("strudel-segment-{tag}-{}.log", std::process::id()))
    }

    #[test]
    fn segment_replays_puts_in_order_and_drops_tombstoned_keys() {
        let path = temp_segment("replay");
        std::fs::remove_file(&path).ok();
        {
            let (mut store, entries) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
            assert!(entries.is_empty());
            store.record_put(&key(1), "{\"outcome\":\"one\"}").unwrap();
            store.record_put(&key(2), "{\"outcome\":\"two\"}").unwrap();
            store
                .record_put(&key(3), "{\"outcome\":\"three\"}")
                .unwrap();
            store.record_evict(&key(2)).unwrap();
            // Supersede key 1: the replayed value must be the newest.
            store
                .record_put(&key(1), "{\"outcome\":\"one-v2\"}")
                .unwrap();
            store.flush().unwrap();
            assert_eq!(store.stats().live, 2);
            assert_eq!(store.stats().tombstones, 1);
            // Dead: superseded put of 1, evicted put of 2, the tombstone.
            assert_eq!(store.stats().dead, 3);
        }
        let (store, entries) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
        assert_eq!(store.stats().replayed, 2);
        assert_eq!(store.stats().dead, 3, "replay recounts dead records");
        // Key 3 was last untouched, key 1 was re-put after it.
        assert_eq!(entries[0].0, key(3));
        assert_eq!(entries[1].0, key(1));
        assert_eq!(entries[1].1, "{\"outcome\":\"one-v2\"}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_records_are_truncated_on_replay() {
        let put = |n: u32, text: &str, tenant: &str| (key(n), text.to_owned(), tenant.to_owned());
        let one = put(1, "{\"text\":\"two\nlines\"}", DEFAULT_TENANT);
        let two = put(2, "{\"ok\":2}", "acme");
        let three = put(3, "{\"ok\":3}", DEFAULT_TENANT);
        // One record of every kind, each with the entries replay returns
        // and the checkpoint it reports once that record is the last whole one.
        let records = [
            (encode_put(&one.0, &one.1, &one.2), vec![&one], 0),
            (encode_put(&two.0, &two.1, &two.2), vec![&one, &two], 0),
            (encode_delete(&one.0), vec![&two], 0),
            (encode_checkpoint(41), vec![&two], 41),
            (
                encode_put(&three.0, &three.1, &three.2),
                vec![&two, &three],
                41,
            ),
        ];
        let mut bytes = Vec::new();
        let mut states = vec![(0, Vec::new(), 0)];
        for (record, entries, checkpoint) in records {
            bytes.extend_from_slice(&record);
            states.push((bytes.len(), entries, checkpoint));
        }

        // Simulate a crash at every byte of the segment.
        let path = temp_segment("torn");
        for cut in 0..=bytes.len() {
            let (end, expected, checkpoint) = states.iter().rfind(|state| state.0 <= cut).unwrap();
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (store, entries) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
            let replayed: Vec<&ReplayedEntry> = entries.iter().collect();
            assert_eq!(&replayed, expected, "cut at byte {cut}");
            assert_eq!(
                store.stats().checkpoint_seq,
                *checkpoint,
                "cut at byte {cut}"
            );
            drop(store);
            let len = std::fs::metadata(&path).unwrap().len() as usize;
            assert_eq!(
                len, *end,
                "cut at byte {cut}: truncated to the last whole record"
            );
        }

        // After a truncation the next append starts a clean record.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (mut store, _) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
        store.record_put(&key(4), "{\"ok\":4}").unwrap();
        store.flush().unwrap();
        drop(store);
        let (_, entries) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
        let keys: Vec<CacheKey> = entries.into_iter().map(|(key, _, _)| key).collect();
        assert_eq!(keys, [key(2), key(4)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_drops_dead_weight_and_preserves_live_entries() {
        let path = temp_segment("compact");
        std::fs::remove_file(&path).ok();
        let (mut store, _) = SegmentStore::open(&path, 4, FsyncPolicy::Off).unwrap();
        // Churn one key while keeping another live.
        store.record_put(&key(1), "{\"keep\":true}").unwrap();
        for round in 0..5 {
            store
                .record_put(&key(2), &format!("{{\"round\":{round}}}"))
                .unwrap();
            store.record_evict(&key(2)).unwrap();
        }
        assert!(store.should_compact(), "{:?}", store.stats());
        let before = store.stats().file_bytes;

        let live = [(key(1), "{\"keep\":true}"), (key(2), "{\"round\":4}")];
        store
            .compact(live.iter().map(|(k, v)| (k, *v, DEFAULT_TENANT)), 41)
            .unwrap();
        let stats = store.stats();
        assert_eq!(stats.dead, 0);
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.live, 2);
        assert!(stats.file_bytes < before, "compaction must shrink the file");
        assert!(!store.should_compact());

        // Appends after compaction land in the renamed file and replay.
        store.record_put(&key(7), "{\"late\":true}").unwrap();
        store.flush().unwrap();
        drop(store);
        let (store, entries) = SegmentStore::open(&path, 4, FsyncPolicy::Off).unwrap();
        let keys: Vec<&CacheKey> = entries.iter().map(|(k, _, _)| k).collect();
        assert_eq!(keys, vec![&key(1), &key(2), &key(7)]);
        // The checkpoint written by the compaction above replays too.
        assert_eq!(store.stats().checkpoint_seq, 41);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacting_an_empty_segment_is_a_noop_with_a_checkpoint() {
        let path = temp_segment("compact-empty");
        std::fs::remove_file(&path).ok();
        let (mut store, entries) = SegmentStore::open(&path, 4, FsyncPolicy::Off).unwrap();
        assert!(entries.is_empty());
        store.compact(std::iter::empty(), 5).unwrap();
        let stats = store.stats();
        assert_eq!(stats.live, 0);
        assert_eq!(stats.dead, 0);
        assert_eq!(stats.compactions, 1);
        drop(store);
        // The file holds only the checkpoint; replay yields no entries and
        // the checkpoint's sequence number.
        let (store, entries) = SegmentStore::open(&path, 4, FsyncPolicy::Off).unwrap();
        assert!(entries.is_empty());
        assert_eq!(store.stats().checkpoint_seq, 5);
        assert_eq!(store.stats().dead, 0, "a checkpoint is not dead weight");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_tombstone_segments_compact_to_nothing() {
        let path = temp_segment("compact-tombstones");
        std::fs::remove_file(&path).ok();
        let (mut store, _) = SegmentStore::open(&path, 2, FsyncPolicy::Off).unwrap();
        for n in 0..4 {
            store.record_put(&key(n), "{\"gone\":true}").unwrap();
            store.record_evict(&key(n)).unwrap();
        }
        assert_eq!(store.stats().live, 0);
        assert!(store.should_compact(), "{:?}", store.stats());
        store.compact(std::iter::empty(), 8).unwrap();
        let after = store.stats().file_bytes;
        drop(store);
        let (store, entries) = SegmentStore::open(&path, 2, FsyncPolicy::Off).unwrap();
        assert!(entries.is_empty(), "nothing was live");
        assert_eq!(store.stats().file_bytes, after);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_mid_eviction_burst_keeps_disk_and_memory_in_lockstep() {
        // Drive the store exactly the way the server does — every cache
        // insert is a put, every eviction a tombstone — with a compaction
        // landing in the middle of the burst, and check that a replay
        // reconstructs precisely the cache's resident set in LRU order.
        let path = temp_segment("compact-burst");
        std::fs::remove_file(&path).ok();
        let (mut store, _) = SegmentStore::open(&path, 4, FsyncPolicy::Off).unwrap();
        let mut cache: LruCache<CacheKey, String> = LruCache::new(3);
        let drive = |store: &mut SegmentStore, cache: &mut LruCache<CacheKey, String>, n| {
            let text = format!("{{\"n\":{n}}}");
            let evicted = cache.insert(key(n), text.clone());
            store.record_put(&key(n), &text).unwrap();
            if let Some((victim, _)) = evicted {
                store.record_evict(&victim).unwrap();
            }
        };
        for n in 0..8 {
            drive(&mut store, &mut cache, n);
        }
        assert!(store.should_compact(), "{:?}", store.stats());
        let snapshot = cache.snapshot_lru_order_with_owners();
        store
            .compact(
                snapshot.iter().map(|(k, v, t)| (k, v.as_str(), t.as_str())),
                8,
            )
            .unwrap();
        // The burst keeps going after the compaction.
        for n in 8..14 {
            drive(&mut store, &mut cache, n);
        }
        store.flush().unwrap();
        assert_eq!(store.stats().live, 3);
        drop(store);
        let (_, entries) = SegmentStore::open(&path, 4, FsyncPolicy::Off).unwrap();
        let replayed: Vec<&CacheKey> = entries.iter().map(|(k, _, _)| k).collect();
        let resident: Vec<CacheKey> = cache
            .snapshot_lru_order()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(replayed, resident.iter().collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn replay_handles_a_segment_whose_final_record_is_a_checkpoint() {
        let path = temp_segment("final-checkpoint");
        std::fs::remove_file(&path).ok();
        let (mut store, _) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
        store.record_put(&key(1), "{\"ok\":1}").unwrap();
        store.record_put(&key(2), "{\"ok\":2}").unwrap();
        let live = [(key(1), "{\"ok\":1}"), (key(2), "{\"ok\":2}")];
        // compact() appends the checkpoint last, so the file now *ends* in
        // a C record.
        store
            .compact(live.iter().map(|(k, v)| (k, *v, DEFAULT_TENANT)), 77)
            .unwrap();
        drop(store);
        let (store, entries) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(store.stats().checkpoint_seq, 77);
        assert_eq!(store.stats().replayed, 2);
        // A torn checkpoint (crash mid-append) truncates cleanly too.
        drop(store);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let (store, entries) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
        assert_eq!(entries.len(), 2, "the torn checkpoint drops, data stays");
        assert_eq!(store.stats().checkpoint_seq, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policies_count_their_barriers() {
        let path = temp_segment("fsync-always");
        std::fs::remove_file(&path).ok();
        let (mut store, _) = SegmentStore::open(&path, 1024, FsyncPolicy::Always).unwrap();
        store.record_put(&key(1), "{\"a\":1}").unwrap();
        store.record_put(&key(2), "{\"b\":2}").unwrap();
        store.record_evict(&key(1)).unwrap();
        assert_eq!(store.stats().fsyncs, 3, "always syncs every append");
        drop(store);
        std::fs::remove_file(&path).ok();

        let path = temp_segment("fsync-interval");
        std::fs::remove_file(&path).ok();
        let (mut store, _) =
            SegmentStore::open(&path, 1024, FsyncPolicy::Interval(Duration::from_millis(5)))
                .unwrap();
        store.record_put(&key(1), "{\"a\":1}").unwrap();
        assert_eq!(store.stats().fsyncs, 0, "inside the window: no barrier");
        std::thread::sleep(Duration::from_millis(10));
        store.tick_sync().unwrap();
        assert_eq!(store.stats().fsyncs, 1, "the tick flushes the dirty window");
        store.tick_sync().unwrap();
        assert_eq!(store.stats().fsyncs, 1, "a clean store does not re-sync");
        std::thread::sleep(Duration::from_millis(10));
        store.record_put(&key(2), "{\"b\":2}").unwrap();
        assert_eq!(store.stats().fsyncs, 2, "an elapsed window syncs on write");
        drop(store);
        std::fs::remove_file(&path).ok();

        let path = temp_segment("fsync-off");
        std::fs::remove_file(&path).ok();
        let (mut store, _) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
        store.record_put(&key(1), "{\"a\":1}").unwrap();
        store.tick_sync().unwrap();
        assert_eq!(store.stats().fsyncs, 0, "off never syncs in steady state");
        store.flush().unwrap();
        assert_eq!(store.stats().fsyncs, 1, "the shutdown barrier still runs");
        drop(store);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fsync_policies_parse_and_render_the_cli_notation() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("off"), Ok(FsyncPolicy::Off));
        assert_eq!(
            FsyncPolicy::parse("interval:250"),
            Ok(FsyncPolicy::Interval(Duration::from_millis(250)))
        );
        assert_eq!(
            FsyncPolicy::default(),
            FsyncPolicy::Interval(Duration::from_millis(100))
        );
        for bad in ["", "sometimes", "interval:", "interval:x", "interval:0"] {
            assert!(FsyncPolicy::parse(bad).is_err(), "must reject '{bad}'");
        }
        assert_eq!(FsyncPolicy::Always.to_string(), "always");
        assert_eq!(
            FsyncPolicy::Interval(Duration::from_millis(100)).to_string(),
            "interval:100"
        );
        assert_eq!(FsyncPolicy::Off.to_string(), "off");
    }

    #[test]
    fn remove_drops_residency_without_counting_an_eviction() {
        let mut cache: LruCache<&str, i32> = LruCache::new(4);
        cache.insert("a", 1);
        cache.insert("b", 2);
        assert_eq!(cache.remove(&"a"), Some(1));
        assert_eq!(cache.remove(&"a"), None);
        assert!(!cache.contains(&"a"));
        assert!(cache.contains(&"b"));
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().entries, 1);
        // The recency index shrank with the map: a full refill works.
        cache.insert("c", 3);
        cache.insert("d", 4);
        cache.insert("e", 5);
        assert_eq!(cache.stats().entries, 4);
    }

    #[test]
    fn unweighted_owners_share_one_global_lru() {
        // Without set_weights every reserve is 0, so multi-owner traffic
        // must evict in exact global LRU order — the pre-tenancy policy.
        let mut cache: LruCache<&str, i32> = LruCache::new(2);
        cache.insert_for("alpha", "a1", 1);
        cache.insert_for("beta", "b1", 2);
        let evicted = cache.insert_for("beta", "b2", 3).expect("cache was full");
        assert_eq!(evicted.key, "a1", "global LRU ignores owners");
        assert_eq!(evicted.owner, "alpha");
        let evicted = cache.insert_for("alpha", "a2", 4).expect("cache was full");
        assert_eq!(evicted.key, "b1");
        assert_eq!(evicted.owner, "beta");
    }

    #[test]
    fn weighted_eviction_protects_a_reserved_share() {
        let mut cache: LruCache<&str, i32> = LruCache::new(4);
        cache.set_weights(&[("alpha".to_owned(), 1), ("beta".to_owned(), 1)]);
        // Beta fills its reserve (2 of 4), then alpha fills the rest.
        cache.insert_for("beta", "b1", 1);
        cache.insert_for("beta", "b2", 2);
        cache.insert_for("alpha", "a1", 3);
        cache.insert_for("alpha", "a2", 4);
        // Alpha floods: every victim must be alpha's own entry, because
        // beta sits exactly at its reserve. Beta's oldest entry "b1" is
        // the global LRU and would be the victim under the old policy.
        for (n, key) in ["a3", "a4", "a5"].iter().enumerate() {
            let evicted = cache
                .insert_for("alpha", key, 10 + n as i32)
                .expect("cache stays full");
            assert_eq!(
                evicted.owner, "alpha",
                "beta is at reserve; alpha eats its own tail"
            );
        }
        assert!(
            cache.contains(&"b1"),
            "beta's working set survives the flood"
        );
        assert!(cache.contains(&"b2"));
        let alpha = cache
            .owner_stats()
            .into_iter()
            .find(|s| s.name == "alpha")
            .unwrap();
        assert_eq!(alpha.evictions, 3, "alpha was charged its own evictions");

        // Conversely, an owner holding *more* than its reserve is the
        // eviction target even when its entries are not globally LRU.
        let mut cache: LruCache<&str, i32> = LruCache::new(4);
        cache.set_weights(&[("alpha".to_owned(), 3), ("beta".to_owned(), 1)]);
        cache.insert_for("beta", "b1", 1);
        cache.insert_for("beta", "b2", 2);
        cache.insert_for("alpha", "a1", 3);
        cache.insert_for("alpha", "a2", 4);
        let evicted = cache.insert_for("alpha", "a3", 5).expect("cache was full");
        assert_eq!(evicted.owner, "beta", "beta is over its reserve of 1");
        assert_eq!(evicted.key, "b1", "beta yields its own LRU entry");
    }

    #[test]
    fn weighted_eviction_invariant_holds_under_random_traffic() {
        // Property: whenever an eviction happens while *some* owner is
        // over its reserve, the victim's owner must itself be over its
        // reserve — a protected tenant is never pushed below its floor to
        // make room for a noisy one.
        use strudel_rdf::rng::StdRng;
        let owners = ["alpha", "beta", "gamma"];
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0x7e0a_0000 + seed);
            let mut cache: LruCache<u32, u32> = LruCache::new(12);
            cache.set_weights(&[
                ("alpha".to_owned(), 2),
                ("beta".to_owned(), 1),
                ("gamma".to_owned(), 1),
            ]);
            let mut next_key = 0u32;
            for _ in 0..600 {
                let owner = owners[rng.gen_range(0..owners.len())];
                if rng.gen_bool(0.3) {
                    // Touch a random (possibly absent) key: recency churn.
                    let probe = rng.gen_range(0..next_key.max(1));
                    cache.get(&probe);
                    continue;
                }
                let before = cache.owner_stats();
                let key = next_key;
                next_key += 1;
                if let Some(evicted) = cache.insert_for(owner, key, key) {
                    let any_over = before.iter().any(|s| s.entries > s.reserved);
                    if any_over {
                        let victim = before
                            .iter()
                            .find(|s| s.name == evicted.owner)
                            .expect("victim owner is registered");
                        assert!(
                            victim.entries > victim.reserved,
                            "seed {seed}: evicted {} (entries {} ≤ reserve {}) while another owner was over",
                            evicted.owner,
                            victim.entries,
                            victim.reserved
                        );
                    }
                }
                let stats = cache.stats();
                assert!(stats.entries <= 12);
            }
            // The reserves themselves are honored at rest: total reserve
            // never exceeds capacity, so everyone can hold their floor.
            let reserved: usize = cache.owner_stats().iter().map(|s| s.reserved).sum();
            assert!(reserved <= 12);
        }
    }

    #[test]
    fn tenant_tagged_records_roundtrip_and_survive_compaction() {
        let path = temp_segment("tenant-roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let (mut store, _) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
            store
                .record_put_for(&key(1), "{\"who\":\"acme\"}", "acme")
                .unwrap();
            store.record_put(&key(2), "{\"who\":\"default\"}").unwrap();
            store
                .record_put_for(&key(3), "{\"who\":\"beta\"}", "beta-corp")
                .unwrap();
            store.flush().unwrap();
        }
        // Default-tenant puts keep the legacy P framing on disk.
        let raw = std::fs::read_to_string(&path).unwrap();
        assert!(raw.contains("\nP "), "default put uses the legacy kind");
        assert!(raw.starts_with("T "), "non-default put uses the T kind");

        let (mut store, entries) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
        let tenants: Vec<&str> = entries.iter().map(|(_, _, t)| t.as_str()).collect();
        assert_eq!(tenants, vec!["acme", "default", "beta-corp"]);
        assert_eq!(entries[0].1, "{\"who\":\"acme\"}");
        assert_eq!(store.stats().skipped_records, 0);

        // Compaction rewrites each entry under its own tenant.
        store
            .compact(
                entries.iter().map(|(k, v, t)| (k, v.as_str(), t.as_str())),
                9,
            )
            .unwrap();
        drop(store);
        let (store, entries) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
        let tenants: Vec<&str> = entries.iter().map(|(_, _, t)| t.as_str()).collect();
        assert_eq!(tenants, vec!["acme", "default", "beta-corp"]);
        assert_eq!(store.stats().checkpoint_seq, 9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_record_kinds_are_skipped_and_counted_not_fatal() {
        let path = temp_segment("unknown-kinds");
        std::fs::remove_file(&path).ok();
        {
            let (mut store, _) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
            store.record_put(&key(1), "{\"ok\":1}").unwrap();
            store.flush().unwrap();
        }
        // Splice in two records from an imaginary future version: one
        // payload-framed (final header field = payload length), one a
        // bare metadata line — then a record this version does know.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"X 00000000000000000000000000000042 5\nhello\n");
        bytes.extend_from_slice(b"Z lease holder-a\n");
        std::fs::write(&path, &bytes).unwrap();
        {
            let (mut store, entries) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
            assert_eq!(
                entries.len(),
                1,
                "known records replay around the foreign ones"
            );
            assert_eq!(store.stats().skipped_records, 2);
            // The file was NOT truncated: appends land after the foreign
            // records, which stay intact for the version that wrote them.
            assert_eq!(store.stats().file_bytes, bytes.len() as u64);
            store.record_put(&key(2), "{\"ok\":2}").unwrap();
            store.flush().unwrap();
        }
        let (store, entries) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
        assert_eq!(entries.len(), 2, "records after the skipped ones replay");
        assert_eq!(entries[1].0, key(2));
        assert_eq!(store.stats().skipped_records, 2);

        // An unknown kind with *broken* framing is still a torn tail.
        drop(store);
        let mut bytes = std::fs::read(&path).unwrap();
        let whole = bytes.len();
        bytes.extend_from_slice(b"Q 999\nshort");
        std::fs::write(&path, &bytes).unwrap();
        let (store, entries) = SegmentStore::open(&path, 1024, FsyncPolicy::Off).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            store.stats().file_bytes,
            whole as u64,
            "the unframeable record is truncated away"
        );
        std::fs::remove_file(&path).ok();
    }
}
