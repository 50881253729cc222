//! The hybrid world-state reader: routes each query class to the ORAM or
//! to locally prefetched (untrusted) memory depending on the security
//! configuration — realizing the `-raw`/`-ESO`/`-full` distinctions of
//! Fig. 4.

use crate::config::SecurityConfig;
use std::sync::Arc;
use tape_oram::ObliviousState;
use tape_primitives::{Address, B256, U256};
use tape_state::{AccountInfo, Code, InMemoryState, StateReader};

/// A reader that splits queries between the local mirror and the ORAM.
///
/// * `Raw`/`E`/`Es` — everything from the local mirror (the paper
///   prefetches the evaluation set into untrusted memory for these).
/// * `Eso` — accounts and storage (K-V queries) via ORAM; code local.
/// * `Full` — everything via ORAM.
pub struct HybridState<'a> {
    local: &'a InMemoryState,
    oram: Option<&'a ObliviousState>,
    config: SecurityConfig,
}

impl core::fmt::Debug for HybridState<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HybridState")
            .field("config", &self.config)
            .field("oram", &self.oram.is_some())
            .finish()
    }
}

impl<'a> HybridState<'a> {
    /// Builds a reader for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration requires an ORAM but none is given.
    pub fn new(
        config: SecurityConfig,
        local: &'a InMemoryState,
        oram: Option<&'a ObliviousState>,
    ) -> Self {
        assert!(
            !config.oram_storage() || oram.is_some(),
            "{config} requires an ORAM backend"
        );
        HybridState { local, oram, config }
    }

    fn oram(&self) -> &ObliviousState {
        self.oram.expect("checked in constructor")
    }
}

impl StateReader for HybridState<'_> {
    fn account(&self, address: &Address) -> Option<AccountInfo> {
        if self.config.oram_storage() {
            self.oram().account(address)
        } else {
            self.local.account(address)
        }
    }

    fn code(&self, address: &Address) -> Arc<Code> {
        if self.config.oram_code() {
            self.oram().code(address)
        } else {
            self.local.code(address)
        }
    }

    fn storage(&self, address: &Address, key: &U256) -> U256 {
        if self.config.oram_storage() {
            self.oram().storage(address, key)
        } else {
            self.local.storage(address, key)
        }
    }

    fn block_hash(&self, number: u64) -> B256 {
        // Block hashes are public chain data; always local.
        self.local.block_hash(number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tape_crypto::SecureRng;
    use tape_oram::{OramClient, OramConfig, OramServer};
    use tape_sim::{Clock, CostModel};
    use tape_state::Account;

    fn oram_with(addr: Address, account: &Account) -> ObliviousState {
        let config = OramConfig { block_size: 1024, bucket_capacity: 4, height: 8 };
        let server = OramServer::new(config.clone());
        let client = OramClient::new(config, &[1u8; 16], SecureRng::from_seed(b"hybrid"));
        let state = ObliviousState::new(client, server, Clock::new(), CostModel::default(), None);
        state.sync_account(&addr, account).unwrap();
        state
    }

    #[test]
    fn raw_reads_local_only() {
        let mut local = InMemoryState::new();
        let addr = Address::from_low_u64(1);
        local.put_account(addr, Account::with_balance(U256::from(7u64)));
        let reader = HybridState::new(SecurityConfig::Raw, &local, None);
        assert_eq!(reader.account(&addr).unwrap().balance, U256::from(7u64));
    }

    #[test]
    fn eso_routes_kv_to_oram_code_local() {
        let addr = Address::from_low_u64(1);
        let mut oram_account = Account::with_balance(U256::from(42u64));
        oram_account.storage.insert(U256::ONE, U256::from(9u64));
        let oram = oram_with(addr, &oram_account);

        // The local mirror holds the code (and a *different* balance so
        // we can tell who answered).
        let mut local = InMemoryState::new();
        let mut local_account = Account::with_code(vec![0xAB; 100]);
        local_account.balance = U256::from(1u64);
        local.put_account(addr, local_account);

        let reader = HybridState::new(SecurityConfig::Eso, &local, Some(&oram));
        assert_eq!(reader.account(&addr).unwrap().balance, U256::from(42u64)); // ORAM
        assert_eq!(reader.storage(&addr, &U256::ONE), U256::from(9u64)); // ORAM
        assert_eq!(reader.code(&addr).len(), 100); // local
        let stats = oram.stats();
        assert!(stats.kv_queries >= 2);
        assert_eq!(stats.code_queries, 0);
    }

    #[test]
    fn full_routes_everything_to_oram() {
        let addr = Address::from_low_u64(1);
        let mut account = Account::with_code(vec![0xCD; 2000]);
        account.balance = U256::from(5u64);
        let oram = oram_with(addr, &account);
        let local = InMemoryState::new(); // empty: proves nothing is local

        let reader = HybridState::new(SecurityConfig::Full, &local, Some(&oram));
        assert_eq!(reader.account(&addr).unwrap().balance, U256::from(5u64));
        assert_eq!(reader.code(&addr).len(), 2000);
        assert!(oram.stats().code_queries >= 2);
    }

    #[test]
    #[should_panic(expected = "requires an ORAM")]
    fn oram_config_without_oram_panics() {
        let local = InMemoryState::new();
        let _ = HybridState::new(SecurityConfig::Full, &local, None);
    }
}
