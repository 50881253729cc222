//! A step ceiling for the differential tests' tracers.

use tape_evm::{FrameEnd, FrameStart, Inspector, StateAccess, StepInfo, StructTracer};

/// A [`StructTracer`] that panics before it records more than `ceiling`
/// steps, so an engine that fails to stop fails its test instead of
/// growing the trace until the process is killed.
pub struct Capped {
    pub trace: StructTracer,
    ceiling: usize,
}

impl Capped {
    /// The reference engine's ceiling for a transaction of `gas_limit`,
    /// a bound a correct engine stays under: every instruction that does
    /// not end its frame charges at least 1 gas, a stipend adds at most
    /// 2 300 gas per 9 000-gas value call, and every frame that ends
    /// was opened by a call or create charged at least 100 gas.
    pub fn reference(gas_limit: u64) -> Self {
        Capped { trace: StructTracer::new(), ceiling: 2 * gas_limit as usize + 1024 }
    }

    /// The HEVM's ceiling: one step more than the reference engine took.
    pub fn hevm(reference: &StructTracer) -> Self {
        Capped { trace: StructTracer::new(), ceiling: reference.steps().len() + 1 }
    }
}

impl Inspector for Capped {
    fn step(&mut self, step: &StepInfo<'_>) {
        let ceiling = self.ceiling;
        assert!(self.trace.steps().len() < ceiling, "more than {ceiling} steps");
        self.trace.step(step);
    }
    fn call_start(&mut self, frame: &FrameStart) {
        self.trace.call_start(frame);
    }
    fn call_end(&mut self, end: &FrameEnd) {
        self.trace.call_end(end);
    }
    fn state_access(&mut self, access: &StateAccess) {
        self.trace.state_access(access);
    }
}
