//! The Table I statistics collector: per-frame memory-like sizes,
//! storage records per frame, and call depth per transaction.

use std::collections::HashSet;
use tape_evm::{FrameEnd, FrameStart, Inspector, StateAccess, StepInfo};
use tape_primitives::{Address, U256};

/// Measurements of one completed execution frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameRecord {
    /// Code size in bytes.
    pub code: usize,
    /// Input (calldata) size in bytes.
    pub input: usize,
    /// Peak Memory size in bytes.
    pub memory: usize,
    /// Peak ReturnData size in bytes (largest sub-call output received).
    pub return_data: usize,
    /// Distinct storage records accessed.
    pub storage_keys: usize,
}

#[derive(Debug, Default)]
struct OpenFrame {
    code: usize,
    input: usize,
    memory: usize,
    return_data: usize,
    keys: HashSet<(Address, U256)>,
}

/// An [`Inspector`] that aggregates the paper's Table I distributions.
///
/// Attach it to either engine, run transactions, call
/// [`finish_transaction`](Self::finish_transaction) after each, then
/// render with [`table_one`].
#[derive(Debug, Default)]
pub struct TableOneCollector {
    open: Vec<OpenFrame>,
    /// Completed frame records.
    pub frames: Vec<FrameRecord>,
    /// Max call depth of each completed transaction.
    pub depths: Vec<usize>,
    current_max_depth: usize,
}

impl TableOneCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the end of a transaction (closes the depth sample).
    pub fn finish_transaction(&mut self) {
        if self.current_max_depth > 0 {
            self.depths.push(self.current_max_depth);
        }
        self.current_max_depth = 0;
        self.open.clear();
    }
}

impl Inspector for TableOneCollector {
    fn step(&mut self, step: &StepInfo<'_>) {
        if let Some(top) = self.open.last_mut() {
            top.memory = top.memory.max(step.memory_size);
        }
    }

    fn call_start(&mut self, frame: &FrameStart) {
        self.current_max_depth = self.current_max_depth.max(frame.depth);
        self.open.push(OpenFrame {
            code: frame.code_len,
            input: frame.input_len,
            ..Default::default()
        });
    }

    fn call_end(&mut self, end: &FrameEnd) {
        if let Some(done) = self.open.pop() {
            self.frames.push(FrameRecord {
                code: done.code,
                input: done.input,
                memory: done.memory,
                return_data: done.return_data,
                storage_keys: done.keys.len(),
            });
        }
        if let Some(parent) = self.open.last_mut() {
            parent.return_data = parent.return_data.max(end.output_len);
        }
    }

    fn state_access(&mut self, access: &StateAccess) {
        if let Some(top) = self.open.last_mut() {
            match access {
                StateAccess::StorageRead(addr, key) | StateAccess::StorageWrite(addr, key, _) => {
                    top.keys.insert((*addr, *key));
                }
                _ => {}
            }
        }
    }
}

/// A histogram over caller-supplied bucket upper bounds, used for the
/// Table-I style distribution tables.
///
/// # Examples
///
/// ```
/// use tape_workload::stats::Histogram;
///
/// // Table I buckets for memory-like sizes: <1k, 1-4k, 4-12k, 12-64k, >64k
/// let mut h = Histogram::new(vec![1024, 4096, 12 * 1024, 64 * 1024]);
/// h.record(100);
/// h.record(5000);
/// assert_eq!(h.shares(), vec![0.5, 0.0, 0.5, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Upper bounds (inclusive) of each bucket; one overflow bucket is
    /// appended automatically.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics if bounds are not strictly ascending.
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        let buckets = bounds.len() + 1;
        Histogram { bounds, counts: vec![0; buckets], total: 0 }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Raw bucket counts (last bucket is the overflow).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket shares in [0, 1]; all zeros when empty.
    pub fn shares(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts.iter().map(|&c| c as f64 / self.total as f64).collect()
    }
}

/// The rendered Table I: bucket shares per column.
#[derive(Debug, Clone)]
pub struct TableOne {
    /// Bucket shares for code size per frame: <1k, 1–4k, 4–12k, 12–64k, >64k.
    pub code: Vec<f64>,
    /// Same buckets for Input size.
    pub input: Vec<f64>,
    /// Same buckets for peak Memory size.
    pub memory: Vec<f64>,
    /// Same buckets for peak ReturnData size.
    pub return_data: Vec<f64>,
    /// Storage records per frame: ≤4, 5–16, 17–64, >64.
    pub storage_keys: Vec<f64>,
    /// Call depth per transaction: 1, 2–5, 6–10, >10.
    pub depth: Vec<f64>,
    /// Number of frames sampled.
    pub frame_count: usize,
    /// Number of transactions sampled.
    pub tx_count: usize,
}

/// Size buckets used by the paper (upper bounds, inclusive).
pub const SIZE_BOUNDS: [u64; 4] = [1024 - 1, 4 * 1024 - 1, 12 * 1024 - 1, 64 * 1024 - 1];
/// Storage-record buckets (≤4, 5–16, 17–64, >64).
pub const KEY_BOUNDS: [u64; 3] = [4, 16, 64];
/// Call-depth buckets (1, 2–5, 6–10, >10).
pub const DEPTH_BOUNDS: [u64; 3] = [1, 5, 10];

/// Renders collected frames and depths into Table I shares.
pub fn table_one(collector: &TableOneCollector) -> TableOne {
    let size_hist = |f: &dyn Fn(&FrameRecord) -> usize| {
        let mut h = Histogram::new(SIZE_BOUNDS.to_vec());
        for frame in &collector.frames {
            h.record(f(frame) as u64);
        }
        h.shares()
    };
    let mut keys = Histogram::new(KEY_BOUNDS.to_vec());
    for frame in &collector.frames {
        keys.record(frame.storage_keys as u64);
    }
    let mut depth = Histogram::new(DEPTH_BOUNDS.to_vec());
    for &d in &collector.depths {
        depth.record(d as u64);
    }
    TableOne {
        code: size_hist(&|f| f.code),
        input: size_hist(&|f| f.input),
        memory: size_hist(&|f| f.memory),
        return_data: size_hist(&|f| f.return_data),
        storage_keys: keys.shares(),
        depth: depth.shares(),
        frame_count: collector.frames.len(),
        tx_count: collector.depths.len(),
    }
}

impl TableOne {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        let pct = |v: f64| format!("{:>6.1}%", v * 100.0);
        let mut out = String::new();
        out.push_str("(a) Memory-like size by type in bytes per frame\n");
        out.push_str("          code    input   memory   return\n");
        let labels = ["<1k", "1-4k", "4-12k", "12-64k", ">64k"];
        for (i, label) in labels.iter().enumerate() {
            out.push_str(&format!(
                "{label:>7} {} {} {} {}\n",
                pct(self.code[i]),
                pct(self.input[i]),
                pct(self.memory[i]),
                pct(self.return_data[i]),
            ));
        }
        out.push_str("\n(b) storage records per frame   (c) call depth per tx\n");
        let key_labels = ["<=4", "5-16", "17-64", ">64"];
        let depth_labels = ["1", "2-5", "6-10", ">10"];
        for i in 0..4 {
            out.push_str(&format!(
                "{:>7} {}          {:>7} {}\n",
                key_labels[i],
                pct(self.storage_keys[i]),
                depth_labels[i],
                pct(self.depth[i]),
            ));
        }
        out.push_str(&format!(
            "\n({} frames over {} transactions)\n",
            self.frame_count, self.tx_count
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts;
    use tape_evm::{Env, Evm, Transaction};
    use tape_state::{Account, InMemoryState};

    #[test]
    fn collector_measures_erc20_transfer() {
        let alice = Address::from_low_u64(1);
        let token = Address::from_low_u64(2000);
        let mut state = InMemoryState::new();
        state.put_account(alice, Account::with_balance(U256::from(u64::MAX)));
        let mut t = Account::with_code(contracts::erc20_runtime());
        t.storage
            .insert(contracts::balance_slot(&alice), U256::from(100u64));
        state.put_account(token, t);

        let mut evm = Evm::with_inspector(Env::default(), &state, TableOneCollector::new());
        let tx = Transaction::call(
            alice,
            token,
            contracts::encode_call(
                contracts::sel::transfer(),
                &[Address::from_low_u64(3).into_word(), U256::from(10u64)],
            ),
        );
        evm.transact(&tx).unwrap();
        evm.inspector_mut().finish_transaction();
        let collector = evm.into_inspector();

        assert_eq!(collector.frames.len(), 1);
        let frame = &collector.frames[0];
        assert_eq!(frame.input, 68); // selector + 2 words
        assert_eq!(frame.code, contracts::erc20_runtime().len());
        assert_eq!(frame.storage_keys, 2); // two balance slots
        assert!(frame.memory > 0 && frame.memory < 4096);
        assert_eq!(collector.depths, vec![1]);
    }

    #[test]
    fn table_renders_with_buckets() {
        let mut collector = TableOneCollector::new();
        collector.frames.push(FrameRecord {
            code: 500,
            input: 68,
            memory: 200,
            return_data: 0,
            storage_keys: 2,
        });
        collector.frames.push(FrameRecord {
            code: 20_000,
            input: 5000,
            memory: 2000,
            return_data: 32,
            storage_keys: 30,
        });
        collector.depths.extend([1, 3, 7]);
        let table = table_one(&collector);
        assert_eq!(table.frame_count, 2);
        assert_eq!(table.tx_count, 3);
        assert!((table.code[0] - 0.5).abs() < 1e-9);
        assert!((table.code[3] - 0.5).abs() < 1e-9);
        assert!((table.storage_keys[0] - 0.5).abs() < 1e-9);
        assert!((table.depth[0] - 1.0 / 3.0).abs() < 1e-9);
        let rendered = table.render();
        assert!(rendered.contains("code"));
        assert!(rendered.contains("12-64k"));
    }

    #[test]
    fn nested_calls_attribute_to_frames() {
        // Router swap: the collector should see 3 frames (router + two
        // token calls) with return data flowing up.
        let alice = Address::from_low_u64(1);
        let token_a = Address::from_low_u64(2000);
        let token_b = Address::from_low_u64(2001);
        let router = Address::from_low_u64(3000);
        let mut state = InMemoryState::new();
        state.put_account(alice, Account::with_balance(U256::from(u64::MAX)));
        let mut ta = Account::with_code(contracts::erc20_runtime());
        ta.storage
            .insert(contracts::balance_slot(&alice), U256::from(1000u64));
        ta.storage.insert(
            contracts::allowance_slot(&alice, &router),
            U256::from(1000u64),
        );
        state.put_account(token_a, ta);
        let mut tb = Account::with_code(contracts::erc20_runtime());
        tb.storage
            .insert(contracts::balance_slot(&router), U256::from(1000u64));
        state.put_account(token_b, tb);
        state.put_account(router, Account::with_code(contracts::router_runtime()));

        let mut evm = Evm::with_inspector(Env::default(), &state, TableOneCollector::new());
        let tx = Transaction::call(
            alice,
            router,
            contracts::encode_call(
                contracts::sel::swap(),
                &[token_a.into_word(), token_b.into_word(), U256::from(10u64)],
            ),
        );
        let result = evm.transact(&tx).unwrap();
        assert!(result.success);
        evm.inspector_mut().finish_transaction();
        let collector = evm.into_inspector();

        assert_eq!(collector.frames.len(), 3);
        assert_eq!(collector.depths, vec![2]);
        // The router frame (last to close) received 32-byte returns.
        let router_frame = collector.frames.last().unwrap();
        assert_eq!(router_frame.return_data, 32);
    }

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::new(vec![10, 100]);
        for v in [5, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        assert_eq!(h.counts(), &[2, 2, 2]);
        assert_eq!(h.total(), 6);
        let shares = h.shares();
        assert!((shares[0] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn histogram_bad_bounds() {
        Histogram::new(vec![10, 10]);
    }
}
