//! The reference EVM: interpreter loop and transaction executor.
//!
//! This is the "Geth-equivalent" engine of the reproduction — it defines
//! ground truth for §VI-B correctness comparisons and serves as the Geth
//! performance baseline in Figures 4 and 5. The independently-implemented
//! hardware EVM (`tape-hevm`) is differentially tested against it.
//!
//! It is a plain stepper, the Geth interpreter's shape: every instruction
//! goes through the one `match` of [`Evm::step`], and every pop and push
//! is checked on its own against the plain [`Stack`]. It has none of the
//! HEVM's straight-line runs, chaining or opened stack, so a defect there
//! cannot move both traces alike.

use crate::gas::{self, Gas};
use crate::memory::Memory;
use crate::opcode::{self, op};
use crate::precompile;
use crate::stack::{Stack, StackError};
use crate::types::{
    Env, FrameEnd, FrameStart, Inspector, StateAccess, StepInfo, Transaction, TxError, TxResult,
    VmError,
};
use core::cmp::Ordering;
use std::sync::Arc;
use tape_primitives::{rlp, Address, B256, U256};
use tape_state::{Code, JournaledState, Log, StateReader};

impl From<StackError> for VmError {
    fn from(e: StackError) -> Self {
        match e {
            StackError::Underflow => VmError::StackUnderflow,
            StackError::Overflow => VmError::StackOverflow,
        }
    }
}

/// One execution frame: the paper's §II-A context (runtime stack,
/// memory-likes, frame state, and a view of the world-state version via
/// the journal checkpoint held by the caller).
struct Frame {
    code: Arc<Code>,
    pc: usize,
    stack: Stack,
    memory: Memory,
    input: Vec<u8>,
    return_data: Vec<u8>,
    /// Storage / balance context.
    address: Address,
    caller: Address,
    value: U256,
    gas: Gas,
    is_static: bool,
    depth: usize,
}

/// How a frame ended.
enum FrameOutcome {
    Stop,
    Return(Vec<u8>),
    Revert(Vec<u8>),
    SelfDestruct,
    Halt(VmError),
}

/// What the interpreter wants next after a step: keep going, end the
/// frame, or descend into a sub-frame. The explicit action type keeps the
/// engine iterative — the call stack is a `Vec`, not native recursion,
/// mirroring the paper's explicit layer-2 call stack.
enum StepAction {
    Continue,
    Done(FrameOutcome),
    SubCall {
        msg: CallMsg,
        out_offset: usize,
        out_len: usize,
    },
    SubCreate {
        created: Address,
        value: U256,
        initcode: Arc<Code>,
        gas: u64,
    },
}

/// How to resume a parent frame once its child completes.
enum Resume {
    Call { out_offset: usize, out_len: usize },
    Create { created: Address },
}

/// A frame prepared for execution together with its journal scope.
struct FrameJob {
    frame: Frame,
    checkpoint: tape_state::Checkpoint,
    refund_snapshot: i64,
    /// `Some(address)` when this job is a CREATE initcode run.
    create: Option<Address>,
}

/// Outcome of preparing a call/create: either a frame to run, or an
/// immediately-known result (precompile, plain transfer, collision, ...).
enum Prepared {
    Job(Box<FrameJob>),
    Immediate(CallOutcome),
}

/// Result of a completed sub-call, as seen by the parent frame.
struct CallOutcome {
    success: bool,
    gas_left: u64,
    output: Vec<u8>,
    halt: Option<VmError>,
    created: Option<Address>,
}

struct CallMsg {
    caller: Address,
    /// Storage context of the callee frame.
    address: Address,
    /// Whose code to run.
    code_address: Address,
    value: U256,
    transfers_value: bool,
    input: Vec<u8>,
    gas: u64,
    is_static: bool,
    depth: usize,
}

/// The EVM executor: owns the journaled state overlay and drives
/// transactions through the interpreter.
///
/// # Examples
///
/// ```
/// use tape_evm::{Env, Evm, Transaction};
/// use tape_primitives::{Address, U256};
/// use tape_state::{Account, InMemoryState};
///
/// let mut backend = InMemoryState::new();
/// let alice = Address::from_low_u64(1);
/// backend.put_account(alice, Account::with_balance(U256::from(10u64).wrapping_pow(U256::from(18u64))));
///
/// let mut evm = Evm::new(Env::default(), &backend);
/// let tx = Transaction::transfer(alice, Address::from_low_u64(0xB0B), U256::from(1_000u64));
/// let result = evm.transact(&tx)?;
/// assert!(result.success);
/// assert_eq!(result.gas_used, 21_000);
/// # Ok::<(), tape_evm::TxError>(())
/// ```
pub struct Evm<R, I = crate::types::NoopInspector> {
    /// Block environment.
    pub env: Env,
    state: JournaledState<R>,
    inspector: I,
    refund: i64,
    origin: Address,
    gas_price: U256,
}

impl<R: StateReader> Evm<R> {
    /// Creates an executor with no inspector.
    pub fn new(env: Env, reader: R) -> Self {
        Self::with_inspector(env, reader, crate::types::NoopInspector)
    }
}

impl<R: StateReader, I: Inspector> Evm<R, I> {
    /// Creates an executor with an inspector attached.
    pub fn with_inspector(env: Env, reader: R, inspector: I) -> Self {
        Evm {
            env,
            state: JournaledState::new(reader),
            inspector,
            refund: 0,
            origin: Address::ZERO,
            gas_price: U256::ZERO,
        }
    }

    /// The journaled overlay (bundle-lifetime state).
    pub fn state(&self) -> &JournaledState<R> {
        &self.state
    }

    /// Mutable access to the overlay (for bundle-level setup).
    pub fn state_mut(&mut self) -> &mut JournaledState<R> {
        &mut self.state
    }

    /// The attached inspector.
    pub fn inspector(&self) -> &I {
        &self.inspector
    }

    /// Mutable access to the attached inspector.
    pub fn inspector_mut(&mut self) -> &mut I {
        &mut self.inspector
    }

    /// Consumes the executor, returning the inspector.
    pub fn into_inspector(self) -> I {
        self.inspector
    }

    /// Executes one transaction against the overlay. World-state changes
    /// stay in the overlay (pre-execution semantics).
    ///
    /// # Errors
    ///
    /// Returns [`TxError`] when the transaction is invalid before
    /// execution starts (bad nonce, unfundable, intrinsic gas).
    pub fn transact(&mut self, tx: &Transaction) -> Result<TxResult, TxError> {
        self.state.begin_transaction();
        self.refund = 0;
        self.origin = tx.from;
        self.gas_price = tx.gas_price;

        let (sender, _) = self.state.load_account(tx.from);
        self.inspector.state_access(&StateAccess::Account(tx.from));
        if let Some(nonce) = tx.nonce {
            if nonce != sender.nonce {
                return Err(TxError::NonceMismatch { expected: nonce, actual: sender.nonce });
            }
        }

        let is_create = tx.to.is_none();
        if is_create && tx.data.len() > gas::MAX_INITCODE_SIZE {
            return Err(TxError::InitcodeTooLarge);
        }
        let al_keys = tx.access_list.iter().map(|(_, k)| k.len()).sum();
        let intrinsic = gas::intrinsic_gas(&tx.data, is_create, tx.access_list.len(), al_keys);
        if tx.gas_limit < intrinsic {
            return Err(TxError::IntrinsicGasTooLow { needed: intrinsic });
        }

        let gas_cost = U256::from(tx.gas_limit)
            .checked_mul(tx.gas_price)
            .ok_or(TxError::InsufficientFunds)?;
        let upfront = gas_cost.checked_add(tx.value).ok_or(TxError::InsufficientFunds)?;
        if sender.balance < upfront {
            return Err(TxError::InsufficientFunds);
        }

        // Buy gas and bump the nonce. The balance was checked above,
        // but the boundary discipline is typed errors over panics.
        self.state
            .sub_balance(&tx.from, gas_cost)
            .map_err(|_| TxError::InsufficientFunds)?;
        self.state.inc_nonce(&tx.from);

        // EIP-2929 pre-warming: sender, target, coinbase, precompiles,
        // access list.
        self.state.warm_address(tx.from);
        if let Some(to) = tx.to {
            self.state.warm_address(to);
        }
        self.state.warm_address(self.env.coinbase);
        for n in 1..=precompile::PRECOMPILE_COUNT {
            self.state.warm_address(Address::from_low_u64(n));
        }
        for (addr, keys) in &tx.access_list {
            self.state.warm_address(*addr);
            for key in keys {
                // Warm the slot by touching it through the journal.
                let _ = self.state.sload(addr, key);
            }
        }

        let mut gas = Gas::new(tx.gas_limit);
        assert!(gas.charge(intrinsic), "intrinsic fits: checked above");

        let (outcome, created) = if let Some(to) = tx.to {
            let msg = CallMsg {
                caller: tx.from,
                address: to,
                code_address: to,
                value: tx.value,
                transfers_value: true,
                input: tx.data.clone(),
                gas: gas.remaining(),
                is_static: false,
                depth: 1,
            };
            let out = match self.prepare_call(msg) {
                Prepared::Immediate(out) => out,
                Prepared::Job(job) => self.run_job(*job),
            };
            (out, None)
        } else {
            let nonce = self.state.nonce(&tx.from) - 1; // already bumped
            let created = create_address(&tx.from, nonce);
            let out = match self.prepare_create(
                tx.from,
                created,
                tx.value,
                Arc::new(Code::new(tx.data.clone())),
                gas.remaining(),
                1,
            ) {
                Prepared::Immediate(out) => out,
                Prepared::Job(job) => self.run_job(*job),
            };
            let created = out.created;
            (out, created)
        };

        // Settle gas: the frame consumed (gas.remaining - gas_left).
        let frame_gas = gas.remaining();
        assert!(gas.charge(frame_gas - outcome.gas_left), "frame gas accounted");

        let refund_cap = gas.used() / 5;
        let refund = (self.refund.max(0) as u64).min(refund_cap);
        gas.reclaim(refund);

        let gas_used = gas.used();
        // Reimburse the sender for unused gas; pay the coinbase.
        let reimbursement = U256::from(gas.remaining()).wrapping_mul(tx.gas_price);
        self.state.add_balance(&tx.from, reimbursement);
        let tip = U256::from(gas_used)
            .wrapping_mul(tx.gas_price.saturating_sub(self.env.base_fee));
        self.state.add_balance(&self.env.coinbase, tip);

        let mut logs = self.state.take_logs();
        if !outcome.success {
            logs.clear();
        }

        Ok(TxResult {
            success: outcome.success,
            gas_used,
            output: outcome.output,
            logs,
            created,
            halt: outcome.halt,
        })
    }

    /// Prepares a call message: value transfer, precompile dispatch, or a
    /// full interpreter frame.
    fn prepare_call(&mut self, msg: CallMsg) -> Prepared {
        self.inspector.state_access(&StateAccess::Account(msg.code_address));
        let code = self.state.code(&msg.code_address);
        self.inspector.call_start(&FrameStart {
            depth: msg.depth,
            code_address: msg.code_address,
            address: msg.address,
            caller: msg.caller,
            value: msg.value,
            input_len: msg.input.len(),
            code_len: code.len(),
            gas: msg.gas,
        });

        let checkpoint = self.state.checkpoint();
        let refund_snapshot = self.refund;

        if msg.transfers_value
            && !msg.value.is_zero()
            && self.state.transfer(&msg.caller, &msg.address, msg.value).is_err()
        {
            // Balance was validated by the caller opcode; a failure here
            // means the top-level sender cannot pay.
            self.state.revert(checkpoint);
            self.inspector.call_end(&FrameEnd {
                depth: msg.depth,
                committed: false,
                output_len: 0,
                gas_left: msg.gas,
            });
            return Prepared::Immediate(CallOutcome {
                success: false,
                gas_left: msg.gas,
                output: Vec::new(),
                halt: None,
                created: None,
            });
        }

        // Precompile dispatch.
        if precompile::is_precompile(&msg.code_address) {
            let out = precompile::run(&msg.code_address, &msg.input, msg.gas);
            let (success, gas_left) = if out.success {
                (true, msg.gas - out.gas_used)
            } else {
                (false, 0)
            };
            if success {
                self.state.commit(checkpoint);
            } else {
                self.state.revert(checkpoint);
                self.refund = refund_snapshot;
            }
            self.inspector.call_end(&FrameEnd {
                depth: msg.depth,
                committed: success,
                output_len: out.output.len(),
                gas_left,
            });
            return Prepared::Immediate(CallOutcome {
                success,
                gas_left,
                output: out.output,
                halt: None,
                created: None,
            });
        }

        if code.is_empty() {
            // Plain transfer to an EOA.
            self.state.commit(checkpoint);
            self.inspector.call_end(&FrameEnd {
                depth: msg.depth,
                committed: true,
                output_len: 0,
                gas_left: msg.gas,
            });
            return Prepared::Immediate(CallOutcome {
                success: true,
                gas_left: msg.gas,
                output: Vec::new(),
                halt: None,
                created: None,
            });
        }

        self.inspector.state_access(&StateAccess::Code(msg.code_address, code.len()));
        let frame = Frame {
            code,
            pc: 0,
            stack: Stack::new(),
            memory: Memory::new(),
            input: msg.input,
            return_data: Vec::new(),
            address: msg.address,
            caller: msg.caller,
            value: msg.value,
            gas: Gas::new(msg.gas),
            is_static: msg.is_static,
            depth: msg.depth,
        };
        Prepared::Job(Box::new(FrameJob { frame, checkpoint, refund_snapshot, create: None }))
    }

    /// Prepares a CREATE/CREATE2 initcode run.
    fn prepare_create(
        &mut self,
        creator: Address,
        created: Address,
        value: U256,
        initcode: Arc<Code>,
        gas: u64,
        depth: usize,
    ) -> Prepared {
        self.inspector.call_start(&FrameStart {
            depth,
            code_address: created,
            address: created,
            caller: creator,
            value,
            input_len: 0,
            code_len: initcode.len(),
            gas,
        });

        // Collision check (EIP-684).
        let (info, _) = self.state.load_account(created);
        if info.has_code() || info.nonce != 0 {
            self.inspector.call_end(&FrameEnd { depth, committed: false, output_len: 0, gas_left: 0 });
            return Prepared::Immediate(CallOutcome {
                success: false,
                gas_left: 0,
                output: Vec::new(),
                halt: Some(VmError::CreateCollision),
                created: None,
            });
        }

        let checkpoint = self.state.checkpoint();
        let refund_snapshot = self.refund;

        // The new account starts at nonce 1 (EIP-161).
        self.state.inc_nonce(&created);
        if !value.is_zero() && self.state.transfer(&creator, &created, value).is_err() {
            self.state.revert(checkpoint);
            self.inspector.call_end(&FrameEnd { depth, committed: false, output_len: 0, gas_left: gas });
            return Prepared::Immediate(CallOutcome {
                success: false,
                gas_left: gas,
                output: Vec::new(),
                halt: None,
                created: None,
            });
        }

        let frame = Frame {
            code: initcode,
            pc: 0,
            stack: Stack::new(),
            memory: Memory::new(),
            input: Vec::new(),
            return_data: Vec::new(),
            address: created,
            caller: creator,
            value,
            gas: Gas::new(gas),
            is_static: false,
            depth,
        };
        Prepared::Job(Box::new(FrameJob {
            frame,
            checkpoint,
            refund_snapshot,
            create: Some(created),
        }))
    }

    /// Drives a prepared frame to completion with an explicit call stack —
    /// no native recursion, so depth 1024 is safe on any host stack.
    fn run_job(&mut self, root: FrameJob) -> CallOutcome {
        let mut parents: Vec<(FrameJob, Resume)> = Vec::new();
        let mut current = root;
        loop {
            // Each arm either finishes the frame (Done), resolves a
            // sub-frame request immediately, or yields the prepared
            // sub-job to descend into — no partially-filled outcome.
            let (job, resume) = match self.run_frame(&mut current.frame) {
                StepAction::Done(outcome) => {
                    let call_outcome = self.finish_job(current, outcome);
                    match parents.pop() {
                        Some((mut parent, resume)) => {
                            apply_resume(&mut parent.frame, &resume, call_outcome);
                            current = parent;
                            continue;
                        }
                        None => return call_outcome,
                    }
                }
                StepAction::SubCall { msg, out_offset, out_len } => {
                    let resume = Resume::Call { out_offset, out_len };
                    match self.prepare_call(msg) {
                        Prepared::Immediate(out) => {
                            apply_resume(&mut current.frame, &resume, out);
                            continue;
                        }
                        Prepared::Job(job) => (job, resume),
                    }
                }
                StepAction::SubCreate { created, value, initcode, gas } => {
                    let prepared = self.prepare_create(
                        current.frame.address,
                        created,
                        value,
                        initcode,
                        gas,
                        current.frame.depth + 1,
                    );
                    match prepared {
                        Prepared::Immediate(out) => {
                            apply_resume(&mut current.frame, &Resume::Create { created }, out);
                            continue;
                        }
                        Prepared::Job(job) => (job, Resume::Create { created }),
                    }
                }
                StepAction::Continue => unreachable!("run_frame never yields Continue"),
            };
            parents.push((current, resume));
            current = *job;
        }
    }

    /// Executes a frame one instruction at a time until it ends or
    /// requests a sub-frame.
    fn run_frame(&mut self, frame: &mut Frame) -> StepAction {
        loop {
            match self.step(frame) {
                Ok(StepAction::Continue) => {}
                Ok(action) => return action,
                Err(err) => {
                    frame.gas.consume_all();
                    return StepAction::Done(FrameOutcome::Halt(err));
                }
            }
        }
    }

    /// Settles a finished job: CREATE deployment epilogue, journal
    /// commit/revert, and the inspector report.
    fn finish_job(&mut self, mut job: FrameJob, mut outcome: FrameOutcome) -> CallOutcome {
        let mut created_out = None;
        if let Some(created) = job.create {
            // STOP (or running off the end) in initcode is a successful
            // deployment of *empty* code, per the EVM spec.
            if matches!(outcome, FrameOutcome::Stop) {
                outcome = FrameOutcome::Return(Vec::new());
            }
            if let FrameOutcome::Return(deployed) = outcome {
                // Deployment epilogue: validate and charge the deposit.
                outcome = if deployed.len() > gas::MAX_CODE_SIZE {
                    job.frame.gas.consume_all();
                    FrameOutcome::Halt(VmError::CodeSizeExceeded)
                } else if deployed.first() == Some(&0xEF) {
                    job.frame.gas.consume_all();
                    FrameOutcome::Halt(VmError::InvalidDeployedCode)
                } else if !job
                    .frame
                    .gas
                    .charge(gas::CODE_DEPOSIT_BYTE * deployed.len() as u64)
                {
                    FrameOutcome::Halt(VmError::OutOfGas)
                } else {
                    self.state.set_code(&created, deployed);
                    created_out = Some(created);
                    // A successful create yields the address, not bytes.
                    FrameOutcome::Stop
                };
            }
        }

        let (success, gas_left, output, halt) = match outcome {
            FrameOutcome::Stop | FrameOutcome::SelfDestruct => {
                (true, job.frame.gas.remaining(), Vec::new(), None)
            }
            FrameOutcome::Return(data) => (true, job.frame.gas.remaining(), data, None),
            FrameOutcome::Revert(data) => (false, job.frame.gas.remaining(), data, None),
            FrameOutcome::Halt(err) => (false, 0, Vec::new(), Some(err)),
        };
        if success {
            self.state.commit(job.checkpoint);
        } else {
            self.state.revert(job.checkpoint);
            self.refund = job.refund_snapshot;
        }
        self.inspector.call_end(&FrameEnd {
            depth: job.frame.depth,
            committed: success,
            output_len: output.len(),
            gas_left,
        });
        CallOutcome { success, gas_left, output, halt, created: created_out }
    }

    /// Executes a single instruction.
    fn step(&mut self, frame: &mut Frame) -> Result<StepAction, VmError> {
        let Some(&opcode) = frame.code.get(frame.pc) else {
            // Running off the end of the code is an implicit STOP.
            return Ok(StepAction::Done(FrameOutcome::Stop));
        };
        let info = opcode::info(opcode);
        if !info.defined {
            return Err(VmError::InvalidOpcode(opcode));
        }

        self.inspector.step(&StepInfo {
            pc: frame.pc,
            opcode,
            gas_remaining: frame.gas.remaining(),
            depth: frame.depth,
            stack: frame.stack.as_slice(),
            memory_size: frame.memory.size(),
            address: frame.address,
        });

        if !frame.gas.charge(info.base_gas) {
            return Err(VmError::OutOfGas);
        }

        let pc = frame.pc;
        frame.pc += 1; // default advance; PUSH/JUMP adjust below

        match opcode {
            op::STOP => return Ok(StepAction::Done(FrameOutcome::Stop)),

            // --- Arithmetic -------------------------------------------------
            op::ADD => binary(frame, |a, b| a.wrapping_add(b))?,
            op::MUL => binary(frame, |a, b| a.wrapping_mul(b))?,
            op::SUB => binary(frame, |a, b| a.wrapping_sub(b))?,
            op::DIV => binary(frame, |a, b| a.div_evm(b))?,
            op::SDIV => binary(frame, |a, b| a.sdiv_evm(b))?,
            op::MOD => binary(frame, |a, b| a.rem_evm(b))?,
            op::SMOD => binary(frame, |a, b| a.smod_evm(b))?,
            op::ADDMOD | op::MULMOD => {
                let (a, b, m) = (frame.stack.pop()?, frame.stack.pop()?, frame.stack.pop()?);
                let value = if opcode == op::ADDMOD { a.add_mod(b, m) } else { a.mul_mod(b, m) };
                frame.stack.push(value)?;
            }
            op::SIGNEXTEND => binary(frame, |b, x| x.sign_extend(b))?,
            op::EXP => {
                let base = frame.stack.pop()?;
                let exponent = frame.stack.pop()?;
                if !frame.gas.charge(gas::exp_cost(&exponent)) {
                    return Err(VmError::OutOfGas);
                }
                frame.stack.push(base.wrapping_pow(exponent))?;
            }

            // --- Comparison and bitwise -------------------------------------
            op::LT => binary(frame, |a, b| U256::from(a < b))?,
            op::GT => binary(frame, |a, b| U256::from(a > b))?,
            op::SLT => binary(frame, |a, b| U256::from(a.signed_cmp(&b) == Ordering::Less))?,
            op::SGT => binary(frame, |a, b| U256::from(a.signed_cmp(&b) == Ordering::Greater))?,
            op::EQ => binary(frame, |a, b| U256::from(a == b))?,
            op::ISZERO => {
                let a = frame.stack.pop()?;
                frame.stack.push(U256::from(a.is_zero()))?;
            }
            op::AND => binary(frame, |a, b| a & b)?,
            op::OR => binary(frame, |a, b| a | b)?,
            op::XOR => binary(frame, |a, b| a ^ b)?,
            op::NOT => {
                let a = frame.stack.pop()?;
                frame.stack.push(!a)?;
            }
            op::BYTE => binary(frame, |i, x| x.byte_be(i))?,
            op::SHL => binary(frame, |s, v| v.shl_word(shift(s)))?,
            op::SHR => binary(frame, |s, v| v.shr_word(shift(s)))?,
            op::SAR => binary(frame, |s, v| v.sar_word(shift(s)))?,

            // --- Keccak -----------------------------------------------------
            op::KECCAK256 => {
                let offset = frame.stack.pop()?;
                let len = frame.stack.pop()?;
                let (offset, len) = charge_memory(frame, offset, len)?;
                if !frame.gas.charge(gas::keccak_cost(len)) {
                    return Err(VmError::OutOfGas);
                }
                let data = frame.memory.load_slice(offset, len);
                frame.stack.push(tape_crypto::keccak256(&data).into_u256())?;
            }

            // --- Frame state / environment ---------------------------------
            op::ADDRESS => frame.stack.push(frame.address.into_word())?,
            op::BALANCE => {
                let addr = Address::from_word(frame.stack.pop()?);
                let (info, is_cold) = self.state.load_account(addr);
                self.inspector.state_access(&StateAccess::Account(addr));
                if !frame.gas.charge(gas::account_access_cost(is_cold)) {
                    return Err(VmError::OutOfGas);
                }
                frame.stack.push(info.balance)?;
            }
            op::ORIGIN => frame.stack.push(self.origin.into_word())?,
            op::CALLER => frame.stack.push(frame.caller.into_word())?,
            op::CALLVALUE => frame.stack.push(frame.value)?,
            op::CALLDATALOAD => {
                let offset = frame.stack.pop()?;
                let mut word = [0u8; 32];
                if let Some(off) = offset.try_into_usize() {
                    for (i, byte) in word.iter_mut().enumerate() {
                        *byte = off
                            .checked_add(i)
                            .and_then(|p| frame.input.get(p))
                            .copied()
                            .unwrap_or(0);
                    }
                }
                frame.stack.push(U256::from_be_bytes(word))?;
            }
            op::CALLDATASIZE => frame.stack.push(U256::from(frame.input.len()))?,
            op::CALLDATACOPY => {
                let (dst, src, len) = copy_params(frame)?;
                let input = std::mem::take(&mut frame.input);
                frame.memory.store_slice_padded(dst, &input, src, len);
                frame.input = input;
            }
            op::CODESIZE => frame.stack.push(U256::from(frame.code.len()))?,
            op::CODECOPY => {
                let (dst, src, len) = copy_params(frame)?;
                let code = Arc::clone(&frame.code);
                frame.memory.store_slice_padded(dst, &code, src, len);
            }
            op::GASPRICE => frame.stack.push(self.gas_price)?,
            op::EXTCODESIZE => {
                let addr = Address::from_word(frame.stack.pop()?);
                let (info, is_cold) = self.state.load_account(addr);
                self.inspector.state_access(&StateAccess::Account(addr));
                if !frame.gas.charge(gas::account_access_cost(is_cold)) {
                    return Err(VmError::OutOfGas);
                }
                frame.stack.push(U256::from(info.code_len))?;
            }
            op::EXTCODECOPY => {
                let addr = Address::from_word(frame.stack.pop()?);
                let (_, is_cold) = self.state.load_account(addr);
                if !frame.gas.charge(gas::account_access_cost(is_cold)) {
                    return Err(VmError::OutOfGas);
                }
                let (dst, src, len) = copy_params(frame)?;
                let code = self.state.code(&addr);
                self.inspector.state_access(&StateAccess::Code(addr, code.len()));
                frame.memory.store_slice_padded(dst, &code, src, len);
            }
            op::RETURNDATASIZE => frame.stack.push(U256::from(frame.return_data.len()))?,
            op::RETURNDATACOPY => {
                let dst = frame.stack.pop()?;
                let src = frame.stack.pop()?;
                let len = frame.stack.pop()?;
                let src = src.try_into_usize().ok_or(VmError::ReturnDataOutOfBounds)?;
                let len_usize = len.try_into_usize().ok_or(VmError::ReturnDataOutOfBounds)?;
                if src.saturating_add(len_usize) > frame.return_data.len() {
                    return Err(VmError::ReturnDataOutOfBounds);
                }
                let (dst, len) = charge_memory(frame, dst, len)?;
                if !frame.gas.charge(gas::copy_cost(len)) {
                    return Err(VmError::OutOfGas);
                }
                let data = std::mem::take(&mut frame.return_data);
                frame.memory.store_slice_padded(dst, &data, src, len);
                frame.return_data = data;
            }
            op::EXTCODEHASH => {
                let addr = Address::from_word(frame.stack.pop()?);
                let (_, is_cold) = self.state.load_account(addr);
                self.inspector.state_access(&StateAccess::Account(addr));
                if !frame.gas.charge(gas::account_access_cost(is_cold)) {
                    return Err(VmError::OutOfGas);
                }
                frame.stack.push(self.state.code_hash(&addr).into_u256())?;
            }
            op::BLOCKHASH => {
                let number = frame.stack.pop()?;
                let hash = match number.try_into_u64() {
                    Some(n)
                        if n < self.env.block_number
                            && self.env.block_number - n <= 256 =>
                    {
                        self.state.reader().block_hash(n)
                    }
                    _ => B256::ZERO,
                };
                frame.stack.push(hash.into_u256())?;
            }
            op::COINBASE => frame.stack.push(self.env.coinbase.into_word())?,
            op::TIMESTAMP => frame.stack.push(U256::from(self.env.timestamp))?,
            op::NUMBER => frame.stack.push(U256::from(self.env.block_number))?,
            op::PREVRANDAO => frame.stack.push(self.env.prevrandao.into_u256())?,
            op::GASLIMIT => frame.stack.push(U256::from(self.env.gas_limit))?,
            op::CHAINID => frame.stack.push(U256::from(self.env.chain_id))?,
            op::SELFBALANCE => {
                let balance = self.state.balance(&frame.address);
                frame.stack.push(balance)?;
            }
            op::BASEFEE => frame.stack.push(self.env.base_fee)?,

            // --- Memory -----------------------------------------------------
            op::MLOAD => {
                let offset = frame.stack.pop()?;
                let (offset, _) = charge_memory(frame, offset, U256::from(32u64))?;
                let word = frame.memory.load_word(offset);
                frame.stack.push(word)?;
            }
            op::MSTORE => {
                let offset = frame.stack.pop()?;
                let value = frame.stack.pop()?;
                let (offset, _) = charge_memory(frame, offset, U256::from(32u64))?;
                frame.memory.store_word(offset, value);
            }
            op::MSTORE8 => {
                let offset = frame.stack.pop()?;
                let value = frame.stack.pop()?;
                let (offset, _) = charge_memory(frame, offset, U256::ONE)?;
                frame.memory.store_byte(offset, value.low_u64() as u8);
            }
            op::MSIZE => frame.stack.push(U256::from(frame.memory.size()))?,
            op::MCOPY => {
                let dst = frame.stack.pop()?;
                let src = frame.stack.pop()?;
                let len = frame.stack.pop()?;
                if !len.is_zero() {
                    let max = if dst > src { dst } else { src };
                    let (_, len_usize) = charge_memory(frame, max, len)?;
                    if !frame.gas.charge(gas::copy_cost(len_usize)) {
                        return Err(VmError::OutOfGas);
                    }
                    let dst = dst.try_into_usize().ok_or(VmError::MemoryOverflow)?;
                    let src = src.try_into_usize().ok_or(VmError::MemoryOverflow)?;
                    frame.memory.copy_within(dst, src, len_usize);
                }
            }

            // --- Stack ------------------------------------------------------
            op::POP => {
                frame.stack.pop()?;
            }
            op::PUSH0 => frame.stack.push(U256::ZERO)?,
            op::PUSH1..=op::PUSH32 => {
                let n = opcode::immediate_len(opcode);
                let start = (pc + 1).min(frame.code.len());
                let end = (pc + 1 + n).min(frame.code.len());
                // Truncated push data is zero-padded on the right.
                let mut word = [0u8; 32];
                word[32 - n..32 - n + (end - start)].copy_from_slice(&frame.code[start..end]);
                frame.stack.push(U256::from_be_bytes(word))?;
                frame.pc = pc + 1 + n;
            }
            op::DUP1..=op::DUP16 => frame.stack.dup(usize::from(opcode - op::DUP1) + 1)?,
            op::SWAP1..=op::SWAP16 => frame.stack.swap(usize::from(opcode - op::SWAP1) + 1)?,

            // --- Storage ----------------------------------------------------
            op::SLOAD => {
                let key = frame.stack.pop()?;
                let result = self.state.sload(&frame.address, &key);
                self.inspector
                    .state_access(&StateAccess::StorageRead(frame.address, key));
                if !frame.gas.charge(gas::sload_cost(result.is_cold)) {
                    return Err(VmError::OutOfGas);
                }
                frame.stack.push(result.value)?;
            }
            op::SSTORE => {
                if frame.is_static {
                    return Err(VmError::StaticViolation);
                }
                if frame.gas.remaining() <= gas::SSTORE_SENTRY {
                    return Err(VmError::OutOfGas);
                }
                let key = frame.stack.pop()?;
                let value = frame.stack.pop()?;
                let result = self.state.sstore(&frame.address, &key, value);
                self.inspector
                    .state_access(&StateAccess::StorageWrite(frame.address, key, value));
                let (cost, refund) =
                    gas::sstore_cost(result.original, result.current, result.new, result.is_cold);
                if !frame.gas.charge(cost) {
                    return Err(VmError::OutOfGas);
                }
                self.refund += refund;
            }
            op::TLOAD => {
                let key = frame.stack.pop()?;
                let value = self.state.tload(&frame.address, &key);
                frame.stack.push(value)?;
            }
            op::TSTORE => {
                if frame.is_static {
                    return Err(VmError::StaticViolation);
                }
                let key = frame.stack.pop()?;
                let value = frame.stack.pop()?;
                self.state.tstore(&frame.address, &key, value);
            }

            // --- Control flow -----------------------------------------------
            op::JUMP => {
                let target = frame.stack.pop()?;
                frame.pc = jump_target(&frame.code, target)?;
            }
            op::JUMPI => {
                let target = frame.stack.pop()?;
                if !frame.stack.pop()?.is_zero() {
                    frame.pc = jump_target(&frame.code, target)?;
                }
            }
            op::PC => frame.stack.push(U256::from(pc))?,
            op::GAS => frame.stack.push(U256::from(frame.gas.remaining()))?,
            op::JUMPDEST => {}

            // --- Logs -------------------------------------------------------
            _ if (op::LOG0..=op::LOG4).contains(&opcode) => {
                if frame.is_static {
                    return Err(VmError::StaticViolation);
                }
                let topic_count = (opcode - op::LOG0) as usize;
                let offset = frame.stack.pop()?;
                let len = frame.stack.pop()?;
                let mut topics = Vec::with_capacity(topic_count);
                for _ in 0..topic_count {
                    topics.push(B256::from(frame.stack.pop()?));
                }
                let (offset, len) = charge_memory(frame, offset, len)?;
                if !frame.gas.charge(gas::LOG_DATA_BYTE * len as u64) {
                    return Err(VmError::OutOfGas);
                }
                let data = frame.memory.load_slice(offset, len);
                self.state.log(Log { address: frame.address, topics, data });
            }

            // --- CALL-RETURN family ------------------------------------------
            op::RETURN => {
                let offset = frame.stack.pop()?;
                let len = frame.stack.pop()?;
                let (offset, len) = charge_memory(frame, offset, len)?;
                let data = frame.memory.load_slice(offset, len);
                return Ok(StepAction::Done(FrameOutcome::Return(data)));
            }
            op::REVERT => {
                let offset = frame.stack.pop()?;
                let len = frame.stack.pop()?;
                let (offset, len) = charge_memory(frame, offset, len)?;
                let data = frame.memory.load_slice(offset, len);
                return Ok(StepAction::Done(FrameOutcome::Revert(data)));
            }
            op::INVALID => return Err(VmError::InvalidOpcode(op::INVALID)),
            op::SELFDESTRUCT => {
                if frame.is_static {
                    return Err(VmError::StaticViolation);
                }
                let beneficiary = Address::from_word(frame.stack.pop()?);
                let (info, is_cold) = self.state.load_account(beneficiary);
                let mut cost = 0u64;
                if is_cold {
                    cost += gas::COLD_ACCOUNT_ACCESS;
                }
                let balance = self.state.balance(&frame.address);
                if info.is_empty() && !balance.is_zero() {
                    cost += gas::SELFDESTRUCT_NEW_ACCOUNT;
                }
                if !frame.gas.charge(cost) {
                    return Err(VmError::OutOfGas);
                }
                self.state.selfdestruct(&frame.address, &beneficiary);
                return Ok(StepAction::Done(FrameOutcome::SelfDestruct));
            }
            op::CALL | op::CALLCODE | op::DELEGATECALL | op::STATICCALL => {
                return self.op_call(frame, opcode);
            }
            op::CREATE | op::CREATE2 => {
                return self.op_create(frame, opcode);
            }

            _ => return Err(VmError::InvalidOpcode(opcode)),
        }

        Ok(StepAction::Continue)
    }

    /// CALL / CALLCODE / DELEGATECALL / STATICCALL: validates, charges
    /// gas, and yields a [`StepAction::SubCall`] for the iterative driver.
    fn op_call(&mut self, frame: &mut Frame, opcode: u8) -> Result<StepAction, VmError> {
        let gas_requested = frame.stack.pop()?;
        let target = Address::from_word(frame.stack.pop()?);
        let value = match opcode {
            op::CALL | op::CALLCODE => frame.stack.pop()?,
            _ => U256::ZERO,
        };
        let in_offset = frame.stack.pop()?;
        let in_len = frame.stack.pop()?;
        let out_offset = frame.stack.pop()?;
        let out_len = frame.stack.pop()?;

        if opcode == op::CALL && !value.is_zero() && frame.is_static {
            return Err(VmError::StaticViolation);
        }

        // Memory for both input and output ranges.
        let (in_offset, in_len) = charge_memory(frame, in_offset, in_len)?;
        let (out_offset, out_len) = charge_memory(frame, out_offset, out_len)?;
        let input = frame.memory.load_slice(in_offset, in_len);

        // EIP-2929 account access.
        let (target_info, is_cold) = self.state.load_account(target);
        if !frame.gas.charge(gas::account_access_cost(is_cold)) {
            return Err(VmError::OutOfGas);
        }

        let mut extra = 0u64;
        let mut stipend = 0u64;
        if !value.is_zero() {
            extra += gas::CALL_VALUE;
            stipend = gas::CALL_STIPEND;
            if opcode == op::CALL && target_info.is_empty() && !self.state.exists(target) {
                extra += gas::CALL_NEW_ACCOUNT;
            }
        }
        if !frame.gas.charge(extra) {
            return Err(VmError::OutOfGas);
        }

        // EIP-150 gas forwarding.
        let forwardable = frame.gas.forwardable();
        let child_gas = match gas_requested.try_into_u64() {
            Some(g) => g.min(forwardable),
            None => forwardable,
        };
        if !frame.gas.charge(child_gas) {
            return Err(VmError::OutOfGas);
        }
        let child_gas = child_gas + stipend;

        // Depth limit and balance check: fail the call without executing.
        if frame.depth >= gas::CALL_DEPTH_LIMIT
            || (!value.is_zero() && self.state.balance(&frame.address) < value)
        {
            frame.gas.reclaim(child_gas - stipend);
            frame.return_data.clear();
            frame.stack.push(U256::ZERO)?;
            return Ok(StepAction::Continue);
        }

        let msg = match opcode {
            op::CALL => CallMsg {
                caller: frame.address,
                address: target,
                code_address: target,
                value,
                transfers_value: true,
                input,
                gas: child_gas,
                is_static: frame.is_static,
                depth: frame.depth + 1,
            },
            op::CALLCODE => CallMsg {
                caller: frame.address,
                address: frame.address,
                code_address: target,
                value,
                transfers_value: false,
                input,
                gas: child_gas,
                is_static: frame.is_static,
                depth: frame.depth + 1,
            },
            op::DELEGATECALL => CallMsg {
                caller: frame.caller,
                address: frame.address,
                code_address: target,
                value: frame.value,
                transfers_value: false,
                input,
                gas: child_gas,
                is_static: frame.is_static,
                depth: frame.depth + 1,
            },
            _ => CallMsg {
                caller: frame.address,
                address: target,
                code_address: target,
                value: U256::ZERO,
                transfers_value: false,
                input,
                gas: child_gas,
                is_static: true,
                depth: frame.depth + 1,
            },
        };
        Ok(StepAction::SubCall { msg, out_offset, out_len })
    }

    /// CREATE / CREATE2: validates, charges gas, and yields a
    /// [`StepAction::SubCreate`] for the iterative driver.
    fn op_create(&mut self, frame: &mut Frame, opcode: u8) -> Result<StepAction, VmError> {
        if frame.is_static {
            return Err(VmError::StaticViolation);
        }
        let value = frame.stack.pop()?;
        let offset = frame.stack.pop()?;
        let len = frame.stack.pop()?;
        let salt = if opcode == op::CREATE2 { Some(frame.stack.pop()?) } else { None };

        let (offset, len) = charge_memory(frame, offset, len)?;
        if len > gas::MAX_INITCODE_SIZE {
            return Err(VmError::InitcodeSizeExceeded);
        }
        // EIP-3860 initcode metering, plus hashing for CREATE2.
        if !frame.gas.charge(gas::INITCODE_WORD * gas::words(len)) {
            return Err(VmError::OutOfGas);
        }
        if salt.is_some() && !frame.gas.charge(gas::keccak_cost(len)) {
            return Err(VmError::OutOfGas);
        }
        let initcode = frame.memory.load_slice(offset, len);

        // Forward all-but-1/64th.
        let child_gas = frame.gas.forwardable();
        if !frame.gas.charge(child_gas) {
            return Err(VmError::OutOfGas);
        }

        if frame.depth >= gas::CALL_DEPTH_LIMIT
            || self.state.balance(&frame.address) < value
        {
            frame.gas.reclaim(child_gas);
            frame.return_data.clear();
            frame.stack.push(U256::ZERO)?;
            return Ok(StepAction::Continue);
        }

        let nonce = self.state.inc_nonce(&frame.address);
        let initcode = Arc::new(Code::new(initcode));
        let created = match salt {
            Some(salt) => create2_address(&frame.address, &salt, &initcode.hash()),
            None => create_address(&frame.address, nonce),
        };

        Ok(StepAction::SubCreate { created, value, initcode, gas: child_gas })
    }
}

/// Applies a completed child's outcome to its parent frame: reclaims
/// leftover gas, installs ReturnData, copies output into memory, and
/// pushes the result word. The pushes cannot overflow: the triggering
/// opcode popped at least three words.
fn apply_resume(frame: &mut Frame, resume: &Resume, outcome: CallOutcome) {
    frame.gas.reclaim(outcome.gas_left);
    // The result-word pushes below cannot fail: CALL/CREATE popped at
    // least three operands, so a slot is free. A push onto a full stack
    // would be an interpreter bug, not a recoverable condition, and the
    // next pop would surface it as a stack underflow — so the result is
    // deliberately discarded rather than panicking mid-bundle.
    match resume {
        Resume::Call { out_offset, out_len } => {
            let copy_len = (*out_len).min(outcome.output.len());
            if copy_len > 0 {
                frame.memory.store_slice(*out_offset, &outcome.output[..copy_len]);
            }
            frame.return_data = outcome.output;
            let _ = frame.stack.push(U256::from(outcome.success));
        }
        Resume::Create { created } => {
            if outcome.success {
                frame.return_data.clear();
                let _ = frame.stack.push(created.into_word());
            } else {
                // Revert payload becomes ReturnData; halts leave it empty.
                frame.return_data = outcome.output;
                let _ = frame.stack.push(U256::ZERO);
            }
        }
    }
}

/// `keccak256(rlp([sender, nonce]))[12..]` — the CREATE address rule.
pub fn create_address(sender: &Address, nonce: u64) -> Address {
    let encoded = rlp::encode_list(&[rlp::encode_address(sender), rlp::encode_u64(nonce)]);
    Address::from_slice(&tape_crypto::keccak256(encoded).as_bytes()[12..])
}

/// `keccak256(0xff ++ sender ++ salt ++ init_hash)[12..]` — the CREATE2
/// address rule, where `init_hash` is the initcode image's
/// [`Code::hash`].
pub fn create2_address(sender: &Address, salt: &U256, init_hash: &B256) -> Address {
    let mut buf = Vec::with_capacity(85);
    buf.push(0xff);
    buf.extend_from_slice(sender.as_bytes());
    buf.extend_from_slice(&salt.to_be_bytes());
    buf.extend_from_slice(init_hash.as_bytes());
    Address::from_slice(&tape_crypto::keccak256(buf).as_bytes()[12..])
}

/// Charges memory-expansion gas for `offset..offset+len` and expands the
/// frame memory. Returns the resolved `(offset, len)` in `usize`.
fn charge_memory(frame: &mut Frame, offset: U256, len: U256) -> Result<(usize, usize), VmError> {
    let len = len.try_into_usize().ok_or(VmError::MemoryOverflow)?;
    if len == 0 {
        return Ok((0, 0));
    }
    let offset = offset.try_into_usize().ok_or(VmError::MemoryOverflow)?;
    // Cap metering at 2^37 bytes: expansion gas past that exceeds any
    // realistic gas limit anyway, and this guards usize arithmetic.
    let end = offset.checked_add(len).ok_or(VmError::MemoryOverflow)?;
    if end > (1usize << 37) {
        return Err(VmError::MemoryOverflow);
    }
    let cost = gas::memory_expansion_cost(frame.memory.size(), frame.memory.required_size(offset, len));
    if !frame.gas.charge(cost) {
        return Err(VmError::OutOfGas);
    }
    frame.memory.expand(offset, len);
    Ok((offset, len))
}

/// Pops and validates the operands of a copy instruction
/// (CALLDATACOPY/CODECOPY), charging memory and per-word copy gas.
fn copy_params(frame: &mut Frame) -> Result<(usize, usize, usize), VmError> {
    let dst = frame.stack.pop()?;
    let src = frame.stack.pop()?;
    let len = frame.stack.pop()?;
    let (dst, len) = charge_memory(frame, dst, len)?;
    if !frame.gas.charge(gas::copy_cost(len)) {
        return Err(VmError::OutOfGas);
    }
    // A huge source offset with zero/padded reads is fine: reads past the
    // end produce zeros.
    let src = src.try_into_usize().unwrap_or(usize::MAX);
    Ok((dst, src, len))
}

/// Pops `a`, then `b`, and pushes `f(a, b)`.
fn binary(frame: &mut Frame, f: impl FnOnce(U256, U256) -> U256) -> Result<(), StackError> {
    let a = frame.stack.pop()?;
    let b = frame.stack.pop()?;
    frame.stack.push(f(a, b))
}

/// A shift amount, saturated at 256.
fn shift(s: U256) -> u32 {
    s.try_into_u64().map(|s| s.min(256) as u32).unwrap_or(256)
}

#[inline(always)]
fn jump_target(code: &Code, target: U256) -> Result<usize, VmError> {
    let target = target.try_into_usize().ok_or(VmError::InvalidJump)?;
    if !code.jumpdests().is_valid(target) {
        return Err(VmError::InvalidJump);
    }
    Ok(target)
}
