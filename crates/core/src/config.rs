//! Security configurations: the paper's `-raw`/`-E`/`-ES`/`-ESO`/`-full`
//! ladder (Fig. 4). Each level adds one protection on top of the last;
//! the SP deploys `Full`. Also the gateway's deployment settings
//! ([`GatewayConfig`]): how much demand is admitted, and how many host
//! threads drain it.

use crate::gateway::QUEUE_DEPTH;

/// The cumulative security-feature ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SecurityConfig {
    /// All off-chip data protections disabled (baseline HEVM).
    Raw,
    /// + AES-GCM encryption of user inputs and returned traces.
    E,
    /// + ECDSA signature/verification of bundles.
    Es,
    /// + Path ORAM for storage and account (K-V style) queries.
    Eso,
    /// + Path ORAM for contract bytecode too — the production setting.
    Full,
}

impl SecurityConfig {
    /// All five configurations in the Fig. 4 order.
    pub const ALL: [SecurityConfig; 5] = [
        SecurityConfig::Raw,
        SecurityConfig::E,
        SecurityConfig::Es,
        SecurityConfig::Eso,
        SecurityConfig::Full,
    ];

    /// The paper's label for the configuration.
    pub fn label(&self) -> &'static str {
        match self {
            SecurityConfig::Raw => "-raw",
            SecurityConfig::E => "-E",
            SecurityConfig::Es => "-ES",
            SecurityConfig::Eso => "-ESO",
            SecurityConfig::Full => "-full",
        }
    }

    /// AES-GCM on user inputs and traces.
    pub fn encryption(&self) -> bool {
        !matches!(self, SecurityConfig::Raw)
    }

    /// ECDSA bundle signatures.
    pub fn signature(&self) -> bool {
        matches!(self, SecurityConfig::Es | SecurityConfig::Eso | SecurityConfig::Full)
    }

    /// K-V queries (accounts + storage) through the ORAM.
    pub fn oram_storage(&self) -> bool {
        matches!(self, SecurityConfig::Eso | SecurityConfig::Full)
    }

    /// Code queries through the ORAM.
    pub fn oram_code(&self) -> bool {
        matches!(self, SecurityConfig::Full)
    }
}

impl core::fmt::Display for SecurityConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Admission bounds and host parallelism for the multi-tenant gateway.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Global cap on simultaneously queued bundles across all tenants
    /// (the admission budget; the default is cores × queue depth).
    pub admission_budget: usize,
    /// Host worker threads draining bundles in parallel on
    /// pool-eligible devices (clamped to at least 1). The schedule and
    /// every digest are identical for any value — workers change host
    /// wall-clock time only — so this is purely a throughput knob. It
    /// is also the divisor in `retry_after` hints: the honest drain
    /// rate, where the nominal `hevm_count` used to overpromise.
    pub workers: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            // The default chip has 3 HEVM cores.
            admission_budget: 3 * QUEUE_DEPTH,
            // One worker: sequential host execution unless the
            // deployment opts into parallelism.
            workers: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        use SecurityConfig::*;
        let features = |c: SecurityConfig| {
            [c.encryption(), c.signature(), c.oram_storage(), c.oram_code()]
        };
        assert_eq!(features(Raw), [false, false, false, false]);
        assert_eq!(features(E), [true, false, false, false]);
        assert_eq!(features(Es), [true, true, false, false]);
        assert_eq!(features(Eso), [true, true, true, false]);
        assert_eq!(features(Full), [true, true, true, true]);
        // Each level is a superset of the previous.
        for pair in SecurityConfig::ALL.windows(2) {
            for i in 0..4 {
                assert!(features(pair[0])[i] <= features(pair[1])[i]);
            }
        }
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<&str> = SecurityConfig::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels, vec!["-raw", "-E", "-ES", "-ESO", "-full"]);
    }
}
