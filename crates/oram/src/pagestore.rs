//! The paged world state: reassembling Ethereum's irregular data into
//! fixed-size ORAM *blocks* (paper §IV-D).
//!
//! * Contract bytecode is split into 1 KB **code pages**.
//! * Storage records are grouped **32 consecutive keys per page**
//!   (Solidity assigns variables and array elements consecutive slots,
//!   so groups have high locality).
//! * Account headers (balance, nonce, code hash, code length) form
//!   **meta pages**.
//!
//! All three page kinds share one block size, so their ORAM responses
//! are indistinguishable — solving the paper's problems (1) and (2).

use crate::path_oram::{BlockId, FixedMap, FixedSet, OramClient, OramError, OramServer};
use crate::prefetch::{CodePrefetcher, PrefetchStats};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use tape_crypto::{Keccak256, SecureRng};
use tape_primitives::{Address, B256, U256};
use tape_sim::fault::{Ablation, FaultPlan};
use tape_sim::telemetry::{CounterId, QueryKind, Telemetry, TelemetryEvent};
use tape_sim::{Clock, CostModel, Nanos};
use tape_state::{Account, AccountInfo, Code, StateReader};

/// Records per storage group: 1024-byte page / 32-byte value.
pub const RECORDS_PER_GROUP: u64 = 32;

/// A logical page of the world state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKey {
    /// Account header page.
    AccountMeta(Address),
    /// The `index`-th 1 KB page of an account's bytecode.
    CodePage(Address, u32),
    /// The group of storage records with keys
    /// `[group*32, group*32 + 31]`. Non-contiguous (hash-derived) keys
    /// land in the group of `key >> 5` like any other key.
    StorageGroup(Address, U256),
}

impl PageKey {
    /// The ORAM block id for this page: a domain-separated hash, so the
    /// adversary cannot relate ids to addresses.
    pub fn block_id(&self) -> BlockId {
        let mut h = Keccak256::new();
        match self {
            PageKey::AccountMeta(addr) => {
                h.update(b"meta");
                h.update(addr.as_bytes());
            }
            PageKey::CodePage(addr, index) => {
                h.update(b"code");
                h.update(addr.as_bytes());
                h.update(&index.to_be_bytes());
            }
            PageKey::StorageGroup(addr, group) => {
                h.update(b"stor");
                h.update(addr.as_bytes());
                h.update(&group.to_be_bytes());
            }
        }
        h.finalize()
    }

    /// The storage group that contains `key`.
    pub fn group_of(key: &U256) -> U256 {
        key.shr_word(5)
    }

    /// Index of `key` within its group.
    pub fn index_in_group(key: &U256) -> usize {
        (key.low_u64() & (RECORDS_PER_GROUP - 1)) as usize
    }

    /// The storage keys of `group`, `[group*32, group*32 + 31]`.
    fn keys_of(group: &U256) -> std::ops::RangeInclusive<U256> {
        let first = group.shl_word(5);
        first..=first + U256::from(RECORDS_PER_GROUP - 1)
    }
}

/// What the ORAM last received for one account: the hash of the code
/// whose pages it holds (`None` until every page of a code image has
/// been written), and a digest of each storage group it holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SyncedAccount {
    code_hash: Option<B256>,
    groups: BTreeMap<U256, B256>,
}

/// The sync table: per account, what the ORAM's pages hold — the diff
/// base of [`ObliviousState::sync_account`].
///
/// It lives on-chip and is sealed into every client checkpoint, so it
/// is trusted state. The host's `local` mirror must never stand in for
/// it: the SP could then make the device skip a page it owes. An
/// account with nothing recorded has no entry. BTree collections keep
/// every write sequence deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SyncTable(BTreeMap<Address, SyncedAccount>);

impl SyncTable {
    fn code_hash(&self, address: &Address) -> Option<B256> {
        self.0.get(address)?.code_hash
    }

    fn group(&self, address: &Address, group: &U256) -> Option<&B256> {
        self.0.get(address)?.groups.get(group)
    }

    fn groups(&self, address: &Address) -> impl Iterator<Item = &U256> {
        self.0.get(address).into_iter().flat_map(|entry| entry.groups.keys())
    }

    fn set_code_hash(&mut self, address: &Address, hash: Option<B256>) {
        self.update(address, |entry| entry.code_hash = hash);
    }

    fn set_group(&mut self, address: &Address, group: U256, digest: Option<B256>) {
        self.update(address, |entry| {
            match digest {
                Some(digest) => entry.groups.insert(group, digest),
                None => entry.groups.remove(&group),
            };
        });
    }

    /// Applies `f` to `address`'s entry and drops the entry if that
    /// left it empty.
    fn update(&mut self, address: &Address, f: impl FnOnce(&mut SyncedAccount)) {
        let entry = self.0.entry(*address).or_default();
        f(entry);
        if *entry == SyncedAccount::default() {
            self.0.remove(address);
        }
    }

    /// Rewrites `out` as the table's encoding: a count of accounts,
    /// then per account its address, a code-hash flag and hash, a
    /// count of groups, and each group with its digest.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&(self.0.len() as u32).to_be_bytes());
        for (address, entry) in &self.0 {
            out.extend_from_slice(address.as_bytes());
            match entry.code_hash {
                Some(hash) => {
                    out.push(1);
                    out.extend_from_slice(hash.as_bytes());
                }
                None => out.push(0),
            }
            out.extend_from_slice(&(entry.groups.len() as u32).to_be_bytes());
            for (group, digest) in &entry.groups {
                out.extend_from_slice(&group.to_be_bytes());
                out.extend_from_slice(digest.as_bytes());
            }
        }
    }

    /// Parses [`encode_into`](Self::encode_into)'s bytes; the empty
    /// slice is the empty table (a client sealed before any sync).
    fn decode(mut bytes: &[u8]) -> Option<SyncTable> {
        fn take<'a, const N: usize>(bytes: &mut &'a [u8]) -> Option<&'a [u8; N]> {
            let (head, rest) = bytes.split_first_chunk::<N>()?;
            *bytes = rest;
            Some(head)
        }
        let mut table = SyncTable::default();
        if bytes.is_empty() {
            return Some(table);
        }
        for _ in 0..u32::from_be_bytes(*take(&mut bytes)?) {
            let address = Address::from_slice(take::<20>(&mut bytes)?);
            let mut entry = SyncedAccount::default();
            match take::<1>(&mut bytes)? {
                [0] => {}
                [1] => entry.code_hash = Some(B256::from_slice(take::<32>(&mut bytes)?)),
                _ => return None,
            }
            for _ in 0..u32::from_be_bytes(*take(&mut bytes)?) {
                let group = U256::from_be_slice(take::<32>(&mut bytes)?);
                entry.groups.insert(group, B256::from_slice(take::<32>(&mut bytes)?));
            }
            table.0.insert(address, entry);
        }
        bytes.is_empty().then_some(table)
    }
}

/// Encodes an account header into a page.
fn encode_meta(info: &AccountInfo, page_size: usize) -> Vec<u8> {
    let mut page = vec![0u8; page_size];
    page[0] = 1; // exists
    page[1..33].copy_from_slice(&info.balance.to_be_bytes());
    page[33..41].copy_from_slice(&info.nonce.to_be_bytes());
    page[41..73].copy_from_slice(info.code_hash.as_bytes());
    page[73..81].copy_from_slice(&(info.code_len as u64).to_be_bytes());
    page
}

fn decode_meta(page: &[u8]) -> Option<AccountInfo> {
    if page[0] == 0 {
        return None;
    }
    Some(AccountInfo {
        balance: U256::from_be_slice(&page[1..33]),
        nonce: u64::from_be_bytes(page[33..41].try_into().expect("fixed layout")),
        code_hash: B256::from_slice(&page[41..73]),
        code_len: u64::from_be_bytes(page[73..81].try_into().expect("fixed layout")) as usize,
    })
}

/// Statistics of what the oblivious store fetched, split by the paper's
/// two query types.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// K-V style queries (account meta + storage groups).
    pub kv_queries: u64,
    /// Code page queries.
    pub code_queries: u64,
    /// Prefetch (dummy) queries issued by the prefetcher.
    pub prefetch_queries: u64,
}

impl QueryStats {
    /// All queries combined.
    pub fn total(&self) -> u64 {
        self.kv_queries + self.code_queries + self.prefetch_queries
    }
}

/// The ORAM-backed oblivious world state: a [`StateReader`] whose every
/// miss turns into an indistinguishable fixed-size ORAM query.
///
/// Pages fetched once stay in an on-chip page cache (the layer-1
/// world-state cache of §IV-B), so "users frequently calling the same
/// contract" hit locally — the Fig. 5 warm case.
pub struct ObliviousState {
    inner: RefCell<Inner>,
}

struct Inner {
    client: OramClient,
    server: OramServer,
    clock: Clock,
    cost: CostModel,
    /// On-chip page cache: fetched pages for the current bundle.
    cache: FixedMap<PageKey, Option<Vec<u8>>>,
    /// What the ORAM's pages hold, per account: the diff base of every
    /// sync (see [`SyncTable`]).
    table: SyncTable,
    stats: QueryStats,
    page_size: usize,
    /// Static page-reachability plans, per contract: only planned code
    /// pages are ever fetched; unplanned ones are served as zero pages
    /// (zero bytes decode as `STOP`, so a sound plan can never change
    /// execution — and an unsound one fails safe). Addresses without a
    /// plan fetch every page, the pre-analysis behaviour.
    plans: FixedMap<Address, std::collections::BTreeSet<u32>>,
    /// World-state prefetch plans, per contract: which kv records (the
    /// meta page plus enumerated storage groups) the value-set analysis
    /// advertised, and whether the contract also has non-enumerable
    /// (dynamic) accesses. Merged across calls; used to keep repeated
    /// plans from re-advertising records.
    kv_plans: FixedMap<Address, KvPlan>,
    /// Pages pinned on-chip by state plans: batch-fetched once at plan
    /// time and retained across [`ObliviousState::clear_cache`], so
    /// per-segment cache clears never re-trigger their wire traffic.
    pinned: FixedSet<PageKey>,
    /// The §IV-D code prefetcher, when enabled (`-full` only).
    prefetcher: Option<CodePrefetcher>,
    /// The negative control this store was built under, if any. This
    /// layer honours three: [`Ablation::Starve`] drives the prefetcher
    /// with the legacy unconditionally-re-arming `on_query` and skips
    /// demand-fetch pacing; [`Ablation::OmitPlan`] and
    /// [`Ablation::OmitStatePlan`] mis-advertise the last page / storage
    /// group of every plan while the operational fetch stays complete.
    ablation: Option<Ablation>,
    /// Checkpoint every ORAM access into the server's durable backend:
    /// seal the client into the commit's meta slot so a cold restart
    /// resumes bit-for-bit at the last committed access.
    durable: bool,
    /// Telemetry sink, when attached.
    telemetry: Option<Telemetry>,
    /// First integrity failure observed during the current bundle.
    ///
    /// [`StateReader`] returns plain values, so a mid-execution ORAM
    /// integrity violation cannot propagate as a `Result`; it is
    /// captured here (reads degrade to "absent page") and the service
    /// collects it via [`ObliviousState::take_fault`] to abort the
    /// bundle with a typed error instead of panicking.
    fault: Option<OramError>,
}

/// Merged world-state plan for one contract (see [`Inner::kv_plans`]).
#[derive(Debug, Clone, Default)]
struct KvPlan {
    /// The account-meta record has been advertised.
    meta: bool,
    /// Storage groups already advertised (true ids, pre-ablation).
    groups: std::collections::BTreeSet<U256>,
    /// The contract declared non-enumerable accesses
    /// ([`TelemetryEvent::PlanKvDynamic`] has been emitted).
    dynamic: bool,
}

impl core::fmt::Debug for ObliviousState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ObliviousState")
            .field("cached_pages", &inner.cache.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl ObliviousState {
    /// Wraps a populated ORAM in a state reader. `ablation` is the
    /// negative control to run under (`None` in production); it cannot
    /// be changed afterwards.
    pub fn new(
        client: OramClient,
        server: OramServer,
        clock: Clock,
        cost: CostModel,
        ablation: Option<Ablation>,
    ) -> Self {
        let page_size = client.config().block_size;
        ObliviousState {
            inner: RefCell::new(Inner {
                client,
                server,
                clock,
                cost,
                cache: FixedMap::default(),
                table: SyncTable::default(),
                stats: QueryStats::default(),
                page_size,
                plans: FixedMap::default(),
                kv_plans: FixedMap::default(),
                pinned: FixedSet::default(),
                prefetcher: None,
                ablation,
                durable: false,
                telemetry: None,
                fault: None,
            }),
        }
    }

    /// Enables the §IV-D code prefetcher with its own DRBG stream and an
    /// initial inter-query gap estimate (typically the cost model's
    /// per-query wire time).
    pub fn enable_prefetch(&self, rng: SecureRng, initial_gap_ns: Nanos) {
        self.inner.borrow_mut().prefetcher = Some(CodePrefetcher::new(rng, initial_gap_ns));
    }

    /// Attaches a telemetry sink; every wire query, prefetch drain, and
    /// stash sample is recorded there from now on.
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        self.inner.borrow_mut().telemetry = Some(telemetry);
    }

    /// Switches to checkpointed operation over a durable backend: the
    /// server's autocommit is disabled and every subsequent ORAM access
    /// seals the client into the same commit (via the meta slot), so a
    /// crash between accesses loses nothing and a crash mid-access rolls
    /// back to the previous access on recovery.
    ///
    /// The sync table travels in the client's sealed appendix. A client
    /// restored from a checkpoint brings the table it was sealed with,
    /// which is adopted here, so a warm restart diffs against what the
    /// recovered tree holds.
    ///
    /// # Errors
    ///
    /// [`OramError::Tampered`] when the appendix does not parse as a
    /// sync table.
    pub fn make_durable(&self) -> Result<(), OramError> {
        let mut inner = self.inner.borrow_mut();
        inner.table = SyncTable::decode(inner.client.appendix()).ok_or(OramError::Tampered)?;
        inner.server.set_autocommit(false);
        inner.durable = true;
        Ok(())
    }

    /// Digest of the committed server-side tree (for twin comparisons
    /// across restarts).
    pub fn state_digest(&self) -> tape_primitives::B256 {
        self.inner.borrow().server.state_digest()
    }

    /// The server backend's committed transaction sequence number.
    pub fn committed_seq(&self) -> u64 {
        self.inner.borrow().server.committed_seq()
    }

    /// Queues `pages` code pages of `address` for background prefetch
    /// (no-op until [`enable_prefetch`](Self::enable_prefetch)).
    pub fn schedule_prefetch(&self, address: Address, pages: u32) {
        if let Some(pf) = self.inner.borrow_mut().prefetcher.as_mut() {
            pf.schedule(address, pages);
        }
    }

    /// Queues an explicit set of code pages — a static reachability
    /// plan — for background prefetch (no-op until
    /// [`enable_prefetch`](Self::enable_prefetch)).
    pub fn schedule_prefetch_pages(&self, address: Address, pages: &[u32]) {
        if let Some(pf) = self.inner.borrow_mut().prefetcher.as_mut() {
            pf.schedule_pages(address, pages);
        }
    }

    /// Installs the static page-reachability plan for `address` (sorted
    /// page indices) and advertises it to telemetry as
    /// [`TelemetryEvent::PlanPage`] events, one per planned page.
    ///
    /// [`code`](StateReader::code) fetches for `address` then touch
    /// *only* planned pages; unplanned ones are served as zero pages
    /// (zeros decode as `STOP`, so a sound plan never changes
    /// execution). Plans last until [`clear_cache`](Self::clear_cache) —
    /// one bundle, like the page cache itself.
    pub fn set_code_plan(&self, address: Address, pages: &[u32]) {
        let mut inner = self.inner.borrow_mut();
        let plan: std::collections::BTreeSet<u32> = pages.iter().copied().collect();
        if let Some(t) = &inner.telemetry {
            // The ablation mis-advertises: the last planned page is
            // replaced by a decoy index while the operational plan stays
            // complete, so execution is unchanged, the contract still
            // counts as planned, and the auditor must report the true
            // page's fetch as unplanned — the negative control's leak.
            // (Dropping the page outright would make single-page
            // contracts *unplanned*, which the auditor rightly exempts.)
            let mut advertised: Vec<u32> = plan.iter().copied().collect();
            if inner.ablation == Some(Ablation::OmitPlan) {
                if let Some(last) = advertised.last_mut() {
                    *last = last.wrapping_add(0x4000_0000);
                }
            }
            let at = inner.clock.now();
            for page in advertised {
                t.record(TelemetryEvent::PlanPage {
                    at,
                    address: address.into_bytes(),
                    page,
                });
            }
        }
        inner.plans.insert(address, plan);
    }

    /// Installs the value-set analyzer's world-state prefetch plan for
    /// `address`: the account-meta record plus the storage group of
    /// every enumerated slot.
    ///
    /// Each record not previously planned is advertised to telemetry as
    /// a [`TelemetryEvent::PlanKv`], counted in
    /// [`CounterId::PlannedKvRecords`], **batch-fetched now** through
    /// the normal demand path (one uniform kv wire query each, skipped
    /// when already on-chip), and *pinned*: pinned pages survive
    /// [`clear_cache`](Self::clear_cache), so later segments and
    /// bundles reuse them instead of re-querying the ORAM.
    ///
    /// `dynamic` declares that the analysis also found non-enumerable
    /// accesses; a [`TelemetryEvent::PlanKvDynamic`] then exempts the
    /// contract's kv traffic from the auditor's plan cross-check (the
    /// exemption itself stays on the record). Enumerated slots are
    /// still advertised and prefetched — the plan is a best-effort
    /// traffic win even when it cannot be a sound bound.
    ///
    /// Repeated calls merge: records advertised once are never
    /// re-advertised, re-fetched, or re-counted.
    pub fn set_state_plan(&self, address: Address, slots: &[U256], dynamic: bool) {
        let mut inner = self.inner.borrow_mut();
        let groups: std::collections::BTreeSet<U256> = slots.iter().map(PageKey::group_of).collect();
        let (fresh_meta, fresh_groups, newly_dynamic) = {
            let entry = inner.kv_plans.entry(address).or_default();
            let fresh_meta = !std::mem::replace(&mut entry.meta, true);
            let newly_dynamic = dynamic && !entry.dynamic;
            entry.dynamic |= dynamic;
            let fresh: Vec<U256> =
                groups.iter().copied().filter(|g| !entry.groups.contains(g)).collect();
            entry.groups.extend(fresh.iter().copied());
            (fresh_meta, fresh, newly_dynamic)
        };
        if let Some(t) = &inner.telemetry {
            let at = inner.clock.now();
            if newly_dynamic {
                t.record(TelemetryEvent::PlanKvDynamic { at, address: address.into_bytes() });
            }
            // The ablation mis-advertises: the last fresh storage group
            // is replaced by a decoy id while the operational batch
            // below still fetches the true group, so execution is
            // unchanged and the auditor must report that fetch as
            // unplanned — the world-state twin of the code-plan
            // negative control. Meta-only plans have no group to decoy
            // and stay intact.
            let mut advertised = fresh_groups.clone();
            if inner.ablation == Some(Ablation::OmitStatePlan) {
                if let Some(last) = advertised.last_mut() {
                    *last = last.wrapping_add(U256::from(0x4000_0000u64));
                }
            }
            let mut records = 0u64;
            if fresh_meta {
                records += 1;
                t.record(TelemetryEvent::PlanKv {
                    at,
                    address: address.into_bytes(),
                    meta: true,
                    group: [0u8; 32],
                });
            }
            for group in advertised {
                records += 1;
                t.record(TelemetryEvent::PlanKv {
                    at,
                    address: address.into_bytes(),
                    meta: false,
                    group: group.to_be_bytes(),
                });
            }
            if records > 0 {
                t.count(CounterId::PlannedKvRecords, records);
            }
        }
        // Operational batch: pull every newly planned record on-chip
        // before execution asks for it, and pin it there.
        if fresh_meta {
            let key = PageKey::AccountMeta(address);
            inner.pinned.insert(key);
            let _ = inner.fetch_page(key);
        }
        for group in fresh_groups {
            let key = PageKey::StorageGroup(address, group);
            inner.pinned.insert(key);
            let _ = inner.fetch_page(key);
        }
    }

    /// The prefetcher's lifetime stats, when one is enabled.
    pub fn prefetch_stats(&self) -> Option<PrefetchStats> {
        self.inner.borrow().prefetcher.as_ref().map(|pf| pf.stats())
    }

    /// Arms the underlying (untrusted) ORAM server with an adversarial
    /// fault plan; see [`OramServer::arm_faults`].
    pub fn arm_faults(&self, plan: FaultPlan) {
        self.inner.borrow_mut().server.arm_faults(plan);
    }

    /// Takes the first ORAM integrity failure captured since the last
    /// call, if any. The service checks this after every bundle: a
    /// `Some` means reads were served degraded (as absent pages) and the
    /// bundle's outcome must be discarded.
    ///
    /// A taken fault also flushes the page cache *including pinned plan
    /// records* and forgets installed plans: degraded reads may have
    /// been cached as absent pages, and a pinned poisoned record would
    /// otherwise outlive the faulted bundle and corrupt every later
    /// session. Recovery re-reads the tree and re-plans from scratch.
    pub fn take_fault(&self) -> Option<OramError> {
        let mut inner = self.inner.borrow_mut();
        let fault = inner.fault.take();
        if fault.is_some() {
            inner.cache.clear();
            inner.pinned.clear();
            inner.kv_plans.clear();
            inner.plans.clear();
        }
        fault
    }

    /// Builds the ORAM content from a full world state — the paper's
    /// block-synchronization step 11 (in production this happens
    /// incrementally per block; see `tape-node`).
    ///
    /// # Errors
    ///
    /// Propagates [`OramError`] from the underlying writes.
    pub fn sync_full_state(
        &self,
        accounts: impl Iterator<Item = (Address, Account)>,
    ) -> Result<(), OramError> {
        for (address, account) in accounts {
            self.sync_account(&address, &account)?;
        }
        Ok(())
    }

    /// Brings one account's pages up to date, diffing against the sync
    /// table: the meta page is always written; the code pages only when
    /// the code hash differs from the table's; a storage group only when
    /// the digest of its `(index, value)` records differs; and a group
    /// the table holds but the account no longer has is zeroed (a stale
    /// page would otherwise keep serving the old values). Genesis sync
    /// (empty table), block sync and rollback all take this path, so a
    /// rollback writes exactly the pages its block wrote.
    ///
    /// Which pages a sync writes is a function of the public block. The
    /// count is visible to the SP, which runs the node that made the
    /// block anyway.
    ///
    /// Returns the number of pages written, at least one (rollback
    /// telemetry advertises these).
    ///
    /// # Errors
    ///
    /// Propagates [`OramError`] from the underlying writes.
    pub fn sync_account(&self, address: &Address, account: &Account) -> Result<u64, OramError> {
        let mut inner = self.inner.borrow_mut();
        let meta = encode_meta(&account.info(), inner.page_size);
        inner.sync(address, meta, Some(&account.code), &account.storage)
    }

    /// Removes an account (on-chain SELFDESTRUCT observed during block
    /// sync) through the same diff as [`sync_account`](Self::sync_account):
    /// the meta page is rewritten as nonexistent, the table forgets the
    /// code (a re-created account rewrites its code pages) and every
    /// group the table holds is zeroed. Returns the number of pages
    /// written — at least the meta page, so even a removal is visible to
    /// the rollback-coverage audit.
    ///
    /// # Errors
    ///
    /// Propagates [`OramError`] from the underlying writes.
    pub fn remove_account(&self, address: &Address) -> Result<u64, OramError> {
        let mut inner = self.inner.borrow_mut();
        // Meta page with the `exists` byte clear: reads decode to None.
        let meta = vec![0u8; inner.page_size];
        let pages = inner.sync(address, meta, None, &BTreeMap::new())?;
        // Invalidate any cached pages of the account, and drop its
        // state-plan pins — a destroyed account's records must not stay
        // resident (or advertised as already-planned) after removal.
        inner.cache.retain(|key, _| match key {
            PageKey::AccountMeta(a) | PageKey::CodePage(a, _) | PageKey::StorageGroup(a, _) => {
                a != address
            }
        });
        inner.pinned.retain(|key| match key {
            PageKey::AccountMeta(a) | PageKey::CodePage(a, _) | PageKey::StorageGroup(a, _) => {
                a != address
            }
        });
        inner.kv_plans.remove(address);
        Ok(pages)
    }

    /// Fetch statistics by query type.
    pub fn stats(&self) -> QueryStats {
        self.inner.borrow().stats
    }

    /// Clears the on-chip page cache (end of a bundle, paper step 10) —
    /// except pages pinned by a state plan (see
    /// [`set_state_plan`](Self::set_state_plan)) —
    /// and drains any still-pending prefetch pages — counted in the
    /// `drained` stat and recorded as a [`TelemetryEvent::PrefetchDrained`],
    /// since pages bypassing the timer are exactly what the leakage
    /// auditor needs to see.
    pub fn clear_cache(&self) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        // Pages pinned by a state plan stay on-chip: that is the plan's
        // whole traffic win — the batch queries are paid once, not once
        // per segment. (The plans themselves persist too; only code
        // plans are per-bundle, like the unpinned cache.)
        let pinned = &inner.pinned;
        inner.cache.retain(|key, _| pinned.contains(key));
        inner.plans.clear();
        let drained = match inner.prefetcher.as_mut() {
            Some(pf) => pf.drain().len(),
            None => 0,
        };
        if drained > 0 {
            if let Some(t) = &inner.telemetry {
                t.record(TelemetryEvent::PrefetchDrained {
                    at: inner.clock.now(),
                    pages: drained as u32,
                });
            }
        }
    }

    /// The adversary's view: every `(time, leaf)` the server observed.
    pub fn observed_accesses(&self) -> Vec<crate::path_oram::ObservedAccess> {
        self.inner.borrow().server.observed().to_vec()
    }

    /// Issues one prefetch query for a code page (driven by the
    /// [`CodePrefetcher`](crate::CodePrefetcher)).
    pub fn prefetch_page(&self, key: PageKey) {
        self.inner.borrow_mut().issue_prefetch(key);
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> Clock {
        self.inner.borrow().clock.clone()
    }
}

impl Inner {
    /// The one sync path (see [`ObliviousState::sync_account`]): `code`
    /// is `None` for a removal, which makes the table forget the code.
    fn sync(
        &mut self,
        address: &Address,
        meta: Vec<u8>,
        code: Option<&Code>,
        storage: &BTreeMap<U256, U256>,
    ) -> Result<u64, OramError> {
        let page_size = self.page_size;
        let forget_code = code.is_none();
        self.write_page(PageKey::AccountMeta(*address), meta, |table| {
            if forget_code {
                table.set_code_hash(address, None);
            }
        })?;
        let mut pages = 1u64;

        if let Some(code) = code.filter(|code| self.table.code_hash(address) != Some(code.hash()))
        {
            let hash = code.hash();
            let count = code.len().div_ceil(page_size);
            for (i, chunk) in code.chunks(page_size).enumerate() {
                let mut page = vec![0u8; page_size];
                page[..chunk.len()].copy_from_slice(chunk);
                // The hash is recorded with the last page; until then
                // the table claims no code, so a crash mid-image
                // rewrites it.
                let written = (i + 1 == count).then_some(hash);
                self.write_page(PageKey::CodePage(*address, i as u32), page, |table| {
                    table.set_code_hash(address, written);
                })?;
                pages += 1;
            }
        }

        // Storage keys are sorted, so each group's records are one run.
        let mut records = storage.iter().peekable();
        while let Some(&(first, _)) = records.peek() {
            let group = PageKey::group_of(first);
            let mut digest = Keccak256::new();
            while let Some((key, value)) = records.next_if(|(k, _)| PageKey::group_of(k) == group) {
                digest.update(&[PageKey::index_in_group(key) as u8]);
                digest.update(&value.to_be_bytes());
            }
            let digest = digest.finalize();
            if self.table.group(address, &group) == Some(&digest) {
                continue;
            }
            let mut page = vec![0u8; page_size];
            for (key, value) in storage.range(PageKey::keys_of(&group)) {
                let index = PageKey::index_in_group(key);
                page[index * 32..(index + 1) * 32].copy_from_slice(&value.to_be_bytes());
            }
            self.write_page(PageKey::StorageGroup(*address, group), page, |table| {
                table.set_group(address, group, Some(digest));
            })?;
            pages += 1;
        }

        let vanished: Vec<U256> = self
            .table
            .groups(address)
            .filter(|group| storage.range(PageKey::keys_of(group)).next().is_none())
            .copied()
            .collect();
        for group in vanished {
            self.write_page(PageKey::StorageGroup(*address, group), vec![0u8; page_size], |table| {
                table.set_group(address, group, None);
            })?;
            pages += 1;
        }
        Ok(pages)
    }

    /// Writes one sync page, records it in the sync table with `record`
    /// and checkpoints: the page and the table entry that describes it
    /// commit together.
    fn write_page(
        &mut self,
        key: PageKey,
        page: Vec<u8>,
        record: impl FnOnce(&mut SyncTable),
    ) -> Result<(), OramError> {
        // Pinned (plan-batched) pages outlive bundle cache clears, so a
        // sync write must refresh any on-chip copy in place — a stale
        // pin would otherwise keep serving pre-sync values.
        if let Some(cached) = self.cache.get_mut(&key) {
            *cached = Some(page.clone());
        }
        let id = key.block_id();
        self.client
            .write(&mut self.server, &self.clock, &self.cost, &id, page)?;
        record(&mut self.table);
        if self.durable {
            self.table.encode_into(self.client.appendix_mut());
        }
        self.checkpoint()?;
        self.record_sync_write();
        Ok(())
    }

    /// Seals the client into the pending commit and commits it (no-op
    /// unless [`ObliviousState::make_durable`] was called).
    fn checkpoint(&mut self) -> Result<(), OramError> {
        if !self.durable {
            return Ok(());
        }
        let sealed = self.client.seal_state();
        self.server.put_meta(sealed);
        self.server.commit()
    }

    /// Records one sync-path page write. Sync writes share the uniform
    /// wire shape (one block each) but stay out of the gap/burst
    /// bookkeeping on purpose: they happen between bundles, and the
    /// §IV-D statistics describe query traffic, not synchronization —
    /// a rollback must look exactly like forward sync, and neither may
    /// skew the demand-path gap statistics.
    fn record_sync_write(&mut self) {
        let Some(t) = &self.telemetry else {
            return;
        };
        t.count(CounterId::OramSync, 1);
        t.record(TelemetryEvent::OramQuery {
            at: self.clock.now(),
            kind: QueryKind::Sync,
            bytes: self.page_size as u32,
        });
    }

    fn fetch_raw(&mut self, id: &BlockId) -> Option<Vec<u8>> {
        match self.client.read(&mut self.server, &self.clock, &self.cost, id) {
            Ok(page) => {
                if let Err(err) = self.checkpoint() {
                    self.fault.get_or_insert(err);
                    return None;
                }
                page
            }
            Err(err) => {
                // Keep the *first* failure: it names the root cause.
                self.fault.get_or_insert(err);
                None
            }
        }
    }

    /// Fetches `key` over the wire into the page cache (absent: `None`).
    fn fetch_page_uncached(&mut self, key: PageKey) {
        // Real fetches (demand, paced, prefetch, or plan batch — never
        // the cached-hit dummy) are individually visible to the
        // auditor's plan-vs-observed cross-checks: code pages against
        // the code plan, kv records against the state plan.
        if let Some(t) = &self.telemetry {
            let at = self.clock.now();
            match key {
                PageKey::CodePage(addr, page) => {
                    t.record(TelemetryEvent::CodePageFetch {
                        at,
                        address: addr.into_bytes(),
                        page,
                    });
                }
                PageKey::AccountMeta(addr) => {
                    t.record(TelemetryEvent::KvFetch {
                        at,
                        address: addr.into_bytes(),
                        meta: true,
                        group: [0u8; 32],
                    });
                }
                PageKey::StorageGroup(addr, group) => {
                    t.record(TelemetryEvent::KvFetch {
                        at,
                        address: addr.into_bytes(),
                        meta: false,
                        group: group.to_be_bytes(),
                    });
                }
            }
        }
        let id = key.block_id();
        let page = self.fetch_raw(&id);
        self.cache.insert(key, page);
    }

    /// Records one wire query of `kind` in the telemetry stream (at the
    /// query's start time, before the wire cost is charged).
    fn record_query(&self, kind: QueryKind) {
        let Some(t) = &self.telemetry else {
            return;
        };
        let at = self.clock.now();
        t.record(TelemetryEvent::OramQuery { at, kind, bytes: self.page_size as u32 });
    }

    /// One prefetch query on the wire: the real page when it is not yet
    /// on-chip, a dummy query otherwise (the wire pattern must not
    /// reveal cache hits).
    fn issue_prefetch(&mut self, key: PageKey) {
        self.stats.prefetch_queries += 1;
        self.record_query(QueryKind::Prefetch);
        if self.cache.contains_key(&key) {
            let dummy = PageKey::CodePage(Address::ZERO, u32::MAX).block_id();
            let _ = self.fetch_raw(&dummy);
        } else {
            self.fetch_page_uncached(key);
        }
    }

    /// Drives the prefetcher at a real-query point: updates its gap
    /// estimate, then issues at most one due page. With the starvation
    /// ablation on, uses the legacy re-arming driver (which never lets
    /// the timer fire in this call order).
    fn drive_prefetch(&mut self, now: Nanos) {
        let due = match self.prefetcher.as_mut() {
            Some(pf) => {
                if self.ablation == Some(Ablation::Starve) {
                    pf.on_query_rearming(now);
                } else {
                    pf.on_query(now);
                }
                pf.poll(now)
            }
            None => None,
        };
        if let Some(page) = due {
            self.issue_prefetch(page);
        }
    }

    /// Cached fetch, counting the query type and driving the prefetcher
    /// at every miss (a miss is a real wire query — a query point). The
    /// page is read where it lies in the cache.
    fn fetch_page(&mut self, key: PageKey) -> Option<&[u8]> {
        if !self.cache.contains_key(&key) {
            let kind = match key {
                PageKey::CodePage(..) => {
                    self.stats.code_queries += 1;
                    QueryKind::Code
                }
                _ => {
                    self.stats.kv_queries += 1;
                    QueryKind::Kv
                }
            };
            self.record_query(kind);
            self.fetch_page_uncached(key);
            let now = self.clock.now();
            self.drive_prefetch(now);
        }
        self.cache.get(&key)?.as_deref()
    }

    /// `true` when demand code fetches must be paced onto the prefetch
    /// cadence (prefetcher enabled, ablation off).
    fn pacing_active(&self) -> bool {
        self.prefetcher.is_some() && self.ablation != Some(Ablation::Starve)
    }

    /// A demand code fetch disguised as a timer prefetch: stall for the
    /// prefetcher's randomized delay before touching the wire, so a
    /// cold contract call does not collapse into the back-to-back burst
    /// §IV-D forbids.
    fn paced_code_fetch(&mut self, key: PageKey) -> Option<&[u8]> {
        if let Some(pf) = self.prefetcher.as_mut() {
            let wait = pf.pace();
            self.clock.advance(wait);
            // The timer no longer owes this page.
            pf.acknowledge(key);
        }
        self.stats.code_queries += 1;
        self.record_query(QueryKind::Code);
        self.fetch_page_uncached(key);
        let after = self.clock.now();
        self.drive_prefetch(after);
        self.cache.get(&key)?.as_deref()
    }
}

impl StateReader for ObliviousState {
    fn account(&self, address: &Address) -> Option<AccountInfo> {
        let mut inner = self.inner.borrow_mut();
        decode_meta(inner.fetch_page(PageKey::AccountMeta(*address))?)
    }

    fn code(&self, address: &Address) -> Arc<Code> {
        let mut inner = self.inner.borrow_mut();
        let Some(meta_page) = inner.fetch_page(PageKey::AccountMeta(*address)) else {
            return Code::empty();
        };
        let Some(info) = decode_meta(meta_page) else {
            return Code::empty();
        };
        if info.code_len == 0 {
            return Code::empty();
        }
        let page_size = inner.page_size;
        let pages = info.code_len.div_ceil(page_size);
        let plan = inner.plans.get(address).cloned();
        let mut code = Vec::with_capacity(info.code_len);
        for i in 0..pages {
            let key = PageKey::CodePage(*address, i as u32);
            // Statically unreachable pages (per the analyzer's plan) are
            // never fetched: the zero fill decodes as STOP, so a sound
            // plan cannot change execution, and skipping the queries is
            // the plan's whole traffic win. Unplanned addresses keep
            // the fetch-everything behaviour.
            let planned = plan.as_ref().is_none_or(|p| p.contains(&(i as u32)));
            let page = if !planned {
                None
            } else if inner.pacing_active() && !inner.cache.contains_key(&key) {
                // Pages the prefetcher has not delivered yet are fetched
                // on demand — but *paced* onto the prefetch cadence,
                // otherwise a cold call would emit `pages` back-to-back
                // code queries (the burst the starved prefetcher used to
                // produce, which the ablation mode deliberately
                // reproduces).
                inner.paced_code_fetch(key)
            } else {
                inner.fetch_page(key)
            };
            match page {
                Some(page) => code.extend_from_slice(page),
                None => code.resize(code.len() + page_size, 0),
            }
        }
        code.truncate(info.code_len);
        Arc::new(Code::new(code))
    }

    fn storage(&self, address: &Address, key: &U256) -> U256 {
        let mut inner = self.inner.borrow_mut();
        let group = PageKey::group_of(key);
        match inner.fetch_page(PageKey::StorageGroup(*address, group)) {
            Some(page) => {
                let idx = PageKey::index_in_group(key);
                U256::from_be_slice(&page[idx * 32..(idx + 1) * 32])
            }
            None => U256::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path_oram::OramConfig;
    use tape_crypto::SecureRng;

    fn oblivious_with(accounts: Vec<(Address, Account)>) -> ObliviousState {
        oblivious_under(None, accounts)
    }

    /// The `OramQuery` events of `kind` in `t`'s stream.
    fn queries(t: &Telemetry, kind: QueryKind) -> u64 {
        let of_kind = |ev: &&TelemetryEvent| {
            matches!(ev, TelemetryEvent::OramQuery { kind: k, .. } if *k == kind)
        };
        t.events().iter().filter(of_kind).count() as u64
    }

    fn oblivious_under(
        ablation: Option<Ablation>,
        accounts: Vec<(Address, Account)>,
    ) -> ObliviousState {
        let config = OramConfig { block_size: 1024, bucket_capacity: 4, height: 8 };
        let server = OramServer::new(config.clone());
        let client = OramClient::new(config, &[3u8; 16], SecureRng::from_seed(b"pagestore"));
        let state =
            ObliviousState::new(client, server, Clock::new(), CostModel::default(), ablation);
        state.sync_full_state(accounts.into_iter()).unwrap();
        state
    }

    #[test]
    fn page_key_ids_distinct() {
        let a = Address::from_low_u64(1);
        let ids = [
            PageKey::AccountMeta(a).block_id(),
            PageKey::CodePage(a, 0).block_id(),
            PageKey::CodePage(a, 1).block_id(),
            PageKey::StorageGroup(a, U256::ZERO).block_id(),
            PageKey::AccountMeta(Address::from_low_u64(2)).block_id(),
        ];
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i], ids[j]);
            }
        }
    }

    #[test]
    fn grouping_arithmetic() {
        assert_eq!(PageKey::group_of(&U256::from(0u64)), U256::ZERO);
        assert_eq!(PageKey::group_of(&U256::from(31u64)), U256::ZERO);
        assert_eq!(PageKey::group_of(&U256::from(32u64)), U256::ONE);
        assert_eq!(PageKey::index_in_group(&U256::from(33u64)), 1);
        assert_eq!(PageKey::index_in_group(&U256::from(31u64)), 31);
    }

    #[test]
    fn account_roundtrip() {
        let addr = Address::from_low_u64(5);
        let mut account = Account::with_code(vec![0xAB; 3000]); // 3 code pages
        account.balance = U256::from(12345u64);
        account.nonce = 7;
        account.storage.insert(U256::from(3u64), U256::from(0x33u64));
        account.storage.insert(U256::from(40u64), U256::from(0x44u64));

        let state = oblivious_with(vec![(addr, account.clone())]);
        let info = state.account(&addr).unwrap();
        assert_eq!(info.balance, U256::from(12345u64));
        assert_eq!(info.nonce, 7);
        assert_eq!(info.code_len, 3000);
        assert_eq!(&state.code(&addr)[..], &vec![0xAB; 3000][..]);
        assert_eq!(state.storage(&addr, &U256::from(3u64)), U256::from(0x33u64));
        assert_eq!(state.storage(&addr, &U256::from(40u64)), U256::from(0x44u64));
        assert_eq!(state.storage(&addr, &U256::from(4u64)), U256::ZERO); // same group, unset
        assert_eq!(state.storage(&addr, &U256::from(999u64)), U256::ZERO); // absent group
    }

    #[test]
    fn absent_account() {
        let state = oblivious_with(vec![]);
        let ghost = Address::from_low_u64(9);
        assert!(state.account(&ghost).is_none());
        assert!(state.code(&ghost).is_empty());
        assert_eq!(state.storage(&ghost, &U256::ONE), U256::ZERO);
    }

    #[test]
    fn cache_avoids_repeat_queries() {
        let addr = Address::from_low_u64(5);
        let state = oblivious_with(vec![(addr, Account::with_balance(U256::ONE))]);
        let before = state.stats();
        state.account(&addr);
        state.account(&addr);
        state.account(&addr);
        let after = state.stats();
        assert_eq!(after.kv_queries - before.kv_queries, 1);

        state.clear_cache();
        state.account(&addr);
        assert_eq!(state.stats().kv_queries - after.kv_queries, 1);
    }

    #[test]
    fn code_and_kv_queries_counted_separately() {
        let addr = Address::from_low_u64(5);
        let mut account = Account::with_code(vec![1u8; 2500]); // 3 pages
        account.balance = U256::ONE;
        let state = oblivious_with(vec![(addr, account)]);
        state.code(&addr);
        let stats = state.stats();
        assert_eq!(stats.kv_queries, 1); // the meta page
        assert_eq!(stats.code_queries, 3);
    }

    #[test]
    fn prefetch_counts_and_hits_wire() {
        let addr = Address::from_low_u64(5);
        let account = Account::with_code(vec![1u8; 2048]);
        let state = oblivious_with(vec![(addr, account)]);
        let wire_before = state.observed_accesses().len();
        state.prefetch_page(PageKey::CodePage(addr, 0));
        state.prefetch_page(PageKey::CodePage(addr, 0)); // cached -> dummy query
        assert_eq!(state.stats().prefetch_queries, 2);
        // Both prefetches produced real wire traffic.
        assert_eq!(state.observed_accesses().len() - wire_before, 2);
    }

    #[test]
    fn telemetry_records_uniform_queries_and_prefetch_interleaves() {
        let addr = Address::from_low_u64(5);
        let mut account = Account::with_code(vec![1u8; 2500]); // 3 pages
        account.storage.insert(U256::ONE, U256::ONE);
        let state = oblivious_with(vec![(addr, account)]);
        let t = Telemetry::new();
        state.set_telemetry(t.clone());
        state.enable_prefetch(SecureRng::from_seed(b"pf"), 2_300_000);
        state.schedule_prefetch(addr, 3);

        state.account(&addr); // kv query point
        state.storage(&addr, &U256::ONE); // kv query point, timer can fire
        state.code(&addr); // remaining pages are paced demand fetches

        let stats = state.stats();
        assert_eq!((stats.kv_queries, queries(&t, QueryKind::Kv)), (2, 2));
        let covered = stats.code_queries + stats.prefetch_queries;
        assert!(covered >= 3, "all 3 code pages hit the wire, covered={covered}");
        // Every wire query is one uniform block.
        let events = t.events();
        let queries: Vec<_> = events
            .iter()
            .filter_map(|ev| match ev {
                TelemetryEvent::OramQuery { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert!(queries.iter().all(|&b| b == 1024));
        assert_eq!(queries.len() as u64, stats.total());
        // Nothing left to drain: demand fetches acknowledged their keys.
        state.clear_cache();
        let stats = state.prefetch_stats().expect("prefetcher enabled");
        assert_eq!((stats.pending, stats.drained), (0, 0));
    }

    #[test]
    fn starvation_ablation_drains_instead_of_issuing() {
        let addr = Address::from_low_u64(5);
        let account = Account::with_code(vec![1u8; 2500]); // 3 pages
        let state = oblivious_under(Some(Ablation::Starve), vec![(addr, account)]);
        let t = Telemetry::new();
        state.set_telemetry(t.clone());
        state.enable_prefetch(SecureRng::from_seed(b"pf"), 2_300_000);
        state.schedule_prefetch(addr, 3);

        state.account(&addr);
        state.code(&addr); // back-to-back demand fetches: the burst

        assert_eq!(queries(&t, QueryKind::Prefetch), 0, "timer never fires");
        assert_eq!((state.stats().code_queries, queries(&t, QueryKind::Code)), (3, 3));
        state.clear_cache();
        let stats = state.prefetch_stats().expect("prefetcher enabled");
        assert_eq!((stats.issued, stats.drained), (0, 3), "starved pages drain");
    }

    #[test]
    fn sync_writes_emit_sync_telemetry_without_gap_pollution() {
        let state = oblivious_with(vec![]);
        let t = Telemetry::new();
        state.set_telemetry(t.clone());

        let addr = Address::from_low_u64(5);
        let mut account = Account::with_code(vec![1u8; 2048]); // 2 code pages
        account.storage.insert(U256::ONE, U256::from(9u64));
        let pages = state.sync_account(&addr, &account).unwrap();
        assert_eq!(pages, 4, "meta + 2 code + 1 storage group");
        assert_eq!(t.counter(CounterId::OramSync), 4);
        let sync_events = t
            .events()
            .iter()
            .filter(|ev| {
                matches!(
                    ev,
                    TelemetryEvent::OramQuery { kind: QueryKind::Sync, bytes: 1024, .. }
                )
            })
            .count();
        assert_eq!(sync_events, 4, "each sync write is one uniform wire block");
        // Sync writes are invisible to the demand-path statistics: no
        // query in the stats, and the first demand query that follows
        // is the stream's first kv query.
        assert_eq!(state.stats().total(), 0);
        state.account(&addr);
        assert_eq!((state.stats().total(), queries(&t, QueryKind::Kv)), (1, 1));

        // Removal rewrites the meta page and zeroes the one group.
        let removed = state.remove_account(&addr).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(t.counter(CounterId::OramSync), 6);
    }

    /// Pages the next sync of `account` writes, by the telemetry counter.
    fn synced_pages(
        state: &ObliviousState,
        t: &Telemetry,
        addr: &Address,
        account: &Account,
    ) -> u64 {
        let before = t.counter(CounterId::OramSync);
        let pages = state.sync_account(addr, account).unwrap();
        assert_eq!(t.counter(CounterId::OramSync) - before, pages);
        pages
    }

    fn token_like() -> Account {
        let mut account = Account::with_code(vec![0x5B; 2000]); // 2 code pages
        account.storage.insert(U256::from(3u64), U256::from(0x33u64)); // group 0
        account.storage.insert(U256::from(40u64), U256::from(0x44u64)); // group 1
        account
    }

    #[test]
    fn resyncing_an_unchanged_account_writes_only_its_meta_page() {
        let addr = Address::from_low_u64(7);
        let state = oblivious_with(vec![]);
        let t = Telemetry::new();
        state.set_telemetry(t.clone());
        assert_eq!(synced_pages(&state, &t, &addr, &token_like()), 5, "meta + 2 code + 2 groups");
        assert_eq!(synced_pages(&state, &t, &addr, &token_like()), 1);
        state.clear_cache();
        assert_eq!(&state.code(&addr)[..], &[0x5B; 2000][..]);
        assert_eq!(state.storage(&addr, &U256::from(40u64)), U256::from(0x44u64));
    }

    #[test]
    fn a_slot_going_a_b_a_writes_its_group_both_times() {
        let addr = Address::from_low_u64(7);
        let mut account = token_like();
        let state = oblivious_with(vec![(addr, account.clone())]);
        let t = Telemetry::new();
        state.set_telemetry(t.clone());
        for value in [0x55u64, 0x33] {
            account.storage.insert(U256::from(3u64), U256::from(value));
            assert_eq!(synced_pages(&state, &t, &addr, &account), 2, "meta + group 0");
            state.clear_cache();
            assert_eq!(state.storage(&addr, &U256::from(3u64)), U256::from(value));
        }
    }

    #[test]
    fn a_vanished_group_is_zeroed() {
        let addr = Address::from_low_u64(7);
        let mut account = token_like();
        let state = oblivious_with(vec![(addr, account.clone())]);
        let t = Telemetry::new();
        state.set_telemetry(t.clone());
        account.storage.remove(&U256::from(40u64));
        assert_eq!(synced_pages(&state, &t, &addr, &account), 2, "meta + zeroed group 1");
        state.clear_cache();
        assert_eq!(state.storage(&addr, &U256::from(40u64)), U256::ZERO);
        assert_eq!(state.storage(&addr, &U256::from(3u64)), U256::from(0x33u64));
        // Zeroed once: the table no longer holds the group.
        assert_eq!(synced_pages(&state, &t, &addr, &account), 1);
    }

    #[test]
    fn a_removed_then_recreated_account_rewrites_its_code_pages() {
        let addr = Address::from_low_u64(7);
        let state = oblivious_with(vec![(addr, token_like())]);
        let t = Telemetry::new();
        state.set_telemetry(t.clone());
        assert_eq!(state.remove_account(&addr).unwrap(), 3, "meta + both groups zeroed");
        assert!(state.account(&addr).is_none());
        assert_eq!(synced_pages(&state, &t, &addr, &token_like()), 5, "as at genesis");
        assert_eq!(state.storage(&addr, &U256::from(3u64)), U256::from(0x33u64));
    }

    #[test]
    fn sync_table_encoding_round_trips() {
        let state = oblivious_with(vec![
            (Address::from_low_u64(7), token_like()),
            (Address::from_low_u64(8), Account::with_balance(U256::ONE)),
        ]);
        let inner = state.inner.borrow();
        assert_eq!(inner.table.0.len(), 1, "an account with nothing recorded has no entry");
        let mut bytes = Vec::new();
        inner.table.encode_into(&mut bytes);
        assert_eq!(SyncTable::decode(&bytes), Some(inner.table.clone()));
        assert_eq!(SyncTable::decode(&[]), Some(SyncTable::default()));
        assert_eq!(SyncTable::decode(&bytes[..bytes.len() - 1]), None);
        assert_eq!(SyncTable::decode(&[bytes.as_slice(), &[0]].concat()), None);
    }

    #[test]
    fn state_plan_batches_pins_and_advertises() {
        let addr = Address::from_low_u64(7);
        let mut account = Account::with_balance(U256::ONE);
        account.storage.insert(U256::from(3u64), U256::from(0x33u64)); // group 0
        account.storage.insert(U256::from(40u64), U256::from(0x44u64)); // group 1
        let state = oblivious_with(vec![(addr, account)]);
        let t = Telemetry::new();
        state.set_telemetry(t.clone());

        state.set_state_plan(addr, &[U256::from(3u64), U256::from(40u64)], false);
        let after_plan = state.stats();
        assert_eq!(after_plan.kv_queries, 3, "meta + 2 groups batch-fetched");
        assert_eq!(t.counter(CounterId::PlannedKvRecords), 3);

        // Execution-time reads are all cache hits.
        state.account(&addr);
        state.storage(&addr, &U256::from(3u64));
        state.storage(&addr, &U256::from(40u64));
        assert_eq!(state.stats(), after_plan);

        // Pinned records survive the per-segment cache clear.
        state.clear_cache();
        state.account(&addr);
        state.storage(&addr, &U256::from(40u64));
        assert_eq!(state.stats(), after_plan);

        // Re-planning merges: nothing is re-advertised or re-fetched.
        state.set_state_plan(addr, &[U256::from(3u64)], false);
        assert_eq!(t.counter(CounterId::PlannedKvRecords), 3);
        assert_eq!(state.stats(), after_plan);

        // Every batched fetch is individually on the audit record.
        let fetches = t
            .events()
            .iter()
            .filter(|ev| matches!(ev, TelemetryEvent::KvFetch { .. }))
            .count();
        assert_eq!(fetches, 3);
    }

    #[test]
    fn dynamic_state_plan_declares_exemption_and_still_prefetches() {
        let addr = Address::from_low_u64(7);
        let mut account = Account::with_balance(U256::ONE);
        account.storage.insert(U256::from(3u64), U256::from(0x33u64));
        let state = oblivious_with(vec![(addr, account)]);
        let t = Telemetry::new();
        state.set_telemetry(t.clone());

        state.set_state_plan(addr, &[U256::from(3u64)], true);
        assert!(
            t.events()
                .iter()
                .any(|ev| matches!(ev, TelemetryEvent::PlanKvDynamic { .. })),
            "the exemption itself is on the record"
        );
        // The enumerable part is still batch-fetched and pinned.
        assert_eq!(state.stats().kv_queries, 2);
        state.clear_cache();
        state.storage(&addr, &U256::from(3u64));
        assert_eq!(state.stats().kv_queries, 2);
    }

    #[test]
    fn state_plan_ablation_misadvertises_last_group() {
        let addr = Address::from_low_u64(7);
        let mut account = Account::with_balance(U256::ONE);
        account.storage.insert(U256::from(3u64), U256::from(0x33u64)); // group 0
        account.storage.insert(U256::from(40u64), U256::from(0x44u64)); // group 1
        let state = oblivious_under(Some(Ablation::OmitStatePlan), vec![(addr, account)]);
        let t = Telemetry::new();
        state.set_telemetry(t.clone());

        state.set_state_plan(addr, &[U256::from(3u64), U256::from(40u64)], false);
        // The operational batch fetched the *true* records...
        assert_eq!(state.stats().kv_queries, 3);
        assert_eq!(state.storage(&addr, &U256::from(40u64)), U256::from(0x44u64));
        // ...but the advertisement replaced the last group with a decoy,
        // so the auditor sees a group-1 fetch no plan covers.
        let advertised: Vec<U256> = t
            .events()
            .iter()
            .filter_map(|ev| match ev {
                TelemetryEvent::PlanKv { meta: false, group, .. } => {
                    Some(U256::from_be_slice(group))
                }
                _ => None,
            })
            .collect();
        assert_eq!(advertised.len(), 2);
        assert!(advertised.contains(&U256::ZERO));
        assert!(!advertised.contains(&U256::ONE), "true last group mis-advertised");
    }

    #[test]
    fn sync_write_refreshes_pinned_pages() {
        let addr = Address::from_low_u64(7);
        let mut account = Account::with_balance(U256::ONE);
        account.storage.insert(U256::from(3u64), U256::from(0x33u64));
        let state = oblivious_with(vec![(addr, account.clone())]);
        state.set_state_plan(addr, &[U256::from(3u64)], false);
        let stats = state.stats();

        account.balance = U256::from(9u64);
        account.storage.insert(U256::from(3u64), U256::from(0x55u64));
        state.sync_account(&addr, &account).unwrap();
        state.clear_cache();
        assert_eq!(state.account(&addr).unwrap().balance, U256::from(9u64));
        assert_eq!(state.storage(&addr, &U256::from(3u64)), U256::from(0x55u64));
        assert_eq!(state.stats(), stats, "pins refreshed in place, never re-fetched");

        // Removal unpins: the next read misses and sees the tombstone.
        state.remove_account(&addr).unwrap();
        assert!(state.account(&addr).is_none());
        assert_eq!(state.stats().kv_queries, stats.kv_queries + 1);
    }

    #[test]
    fn prefetch_counter_is_timer_queries_not_demand_pacing() {
        // `prefetch_queries` counts exactly the wire queries issued on
        // the prefetcher's timer cadence (plus explicit
        // `prefetch_page`); a paced *demand* fetch acknowledges its key
        // and counts as a code query. This is why a precise plan can
        // show hundreds of code fetches next to a tiny prefetch count:
        // pacing does the disguising and the timer stays idle.
        let addr = Address::from_low_u64(5);
        let account = Account::with_code(vec![1u8; 2500]); // 3 pages
        let state = oblivious_with(vec![(addr, account)]);
        let t = Telemetry::new();
        state.set_telemetry(t.clone());
        state.enable_prefetch(SecureRng::from_seed(b"pf"), 1_000);
        state.schedule_prefetch(addr, 3);

        state.account(&addr); // kv query points give the timer a chance
        state.storage(&addr, &U256::ONE);
        state.storage(&addr, &U256::from(33u64));
        state.code(&addr); // whatever the timer missed is paced demand

        let stats = state.stats();
        assert!(stats.prefetch_queries >= 1, "timer fired at least once");
        assert_eq!(
            stats.prefetch_queries,
            queries(&t, QueryKind::Prefetch),
            "the stat mirrors the telemetry stream one-for-one"
        );
        assert_eq!(stats.code_queries, queries(&t, QueryKind::Code));
        assert!(
            stats.prefetch_queries + stats.code_queries >= 3,
            "all three pages crossed the wire one way or the other"
        );
    }

    #[test]
    fn response_sizes_indistinguishable() {
        // Code pages and storage groups produce identical wire traffic:
        // each access reads+writes exactly blocks_per_access ciphertexts
        // of identical size. We verify via the server's uniform geometry.
        let addr = Address::from_low_u64(5);
        let mut account = Account::with_code(vec![9u8; 1024]);
        account.storage.insert(U256::ONE, U256::ONE);
        let state = oblivious_with(vec![(addr, account)]);
        state.code(&addr);
        state.storage(&addr, &U256::ONE);
        // Both paths hit the same server; nothing but the leaf differs.
        let accesses = state.observed_accesses();
        assert!(accesses.len() >= 4);
    }
}
