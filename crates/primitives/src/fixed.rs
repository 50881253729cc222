//! Fixed-size byte arrays: 32-byte hashes and 20-byte addresses.

use crate::hex;
use crate::U256;
use core::fmt;
use core::ops::{Deref, Index};
use core::str::FromStr;

macro_rules! fixed_bytes {
    ($(#[$doc:meta])* $name:ident, $len:expr) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
        pub struct $name(pub [u8; $len]);

        impl $name {
            /// The all-zero value.
            pub const ZERO: $name = $name([0u8; $len]);

            /// Creates a new value from a byte array.
            #[inline]
            pub const fn new(bytes: [u8; $len]) -> Self {
                $name(bytes)
            }

            /// Creates a value from a slice.
            ///
            /// # Panics
            ///
            /// Panics unless `bytes` holds exactly the type's length.
            pub fn from_slice(bytes: &[u8]) -> Self {
                let mut buf = [0u8; $len];
                buf.copy_from_slice(bytes);
                $name(buf)
            }

            /// Returns the bytes as a slice.
            #[inline]
            pub fn as_bytes(&self) -> &[u8] {
                &self.0
            }

            /// Returns the underlying byte array.
            #[inline]
            pub const fn into_bytes(self) -> [u8; $len] {
                self.0
            }

            /// Returns `true` if every byte is zero.
            pub fn is_zero(&self) -> bool {
                self.0.iter().all(|&b| b == 0)
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}(0x{})", stringify!($name), hex::encode(&self.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "0x{}", hex::encode(&self.0))
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.pad_integral(true, "0x", &hex::encode(&self.0))
            }
        }

        impl AsRef<[u8]> for $name {
            fn as_ref(&self) -> &[u8] {
                &self.0
            }
        }

        impl Deref for $name {
            type Target = [u8; $len];
            fn deref(&self) -> &Self::Target {
                &self.0
            }
        }

        impl Index<usize> for $name {
            type Output = u8;
            fn index(&self, i: usize) -> &u8 {
                &self.0[i]
            }
        }

        impl From<[u8; $len]> for $name {
            fn from(bytes: [u8; $len]) -> Self {
                $name(bytes)
            }
        }

        impl From<$name> for [u8; $len] {
            fn from(v: $name) -> Self {
                v.0
            }
        }

        impl FromStr for $name {
            type Err = hex::FromHexError;

            /// Parses a hex string, with or without a `0x` prefix. The
            /// string must encode exactly the type's length in bytes.
            fn from_str(s: &str) -> Result<Self, Self::Err> {
                let s = s.strip_prefix("0x").unwrap_or(s);
                let bytes = hex::decode(s)?;
                if bytes.len() != $len {
                    return Err(hex::FromHexError::InvalidLength {
                        expected: $len * 2,
                        actual: s.len(),
                    });
                }
                Ok(Self::from_slice(&bytes))
            }
        }
    };
}

fixed_bytes!(
    /// A 32-byte value: hashes, storage keys, storage values.
    ///
    /// # Examples
    ///
    /// ```
    /// use tape_primitives::B256;
    ///
    /// let h: B256 = "0x0000000000000000000000000000000000000000000000000000000000000001"
    ///     .parse()?;
    /// assert_eq!(h.0[31], 1);
    /// # Ok::<(), tape_primitives::hex::FromHexError>(())
    /// ```
    B256,
    32
);

fixed_bytes!(
    /// A 20-byte Ethereum account address.
    ///
    /// # Examples
    ///
    /// ```
    /// use tape_primitives::Address;
    ///
    /// let a = Address::from_low_u64(0xdead);
    /// assert_eq!(a.0[19], 0xad);
    /// ```
    Address,
    20
);

impl B256 {
    /// Interprets the bytes as a big-endian [`U256`].
    pub fn into_u256(self) -> U256 {
        U256::from_be_bytes(self.0)
    }
}

impl From<U256> for B256 {
    fn from(v: U256) -> Self {
        B256(v.to_be_bytes())
    }
}

impl From<B256> for U256 {
    fn from(v: B256) -> Self {
        v.into_u256()
    }
}

impl Address {
    /// Builds an address whose low 8 bytes are `v` (big-endian) and whose
    /// high bytes are zero. Convenient for tests and synthetic workloads.
    pub fn from_low_u64(v: u64) -> Self {
        let mut bytes = [0u8; 20];
        bytes[12..].copy_from_slice(&v.to_be_bytes());
        Address(bytes)
    }

    /// Zero-extends the address to a 32-byte word (the EVM stack
    /// representation of an address).
    pub fn into_word(self) -> U256 {
        U256::from_be_slice(&self.0)
    }

    /// Truncates a 256-bit word to its low 20 bytes (the EVM semantics of
    /// reading an address off the stack).
    pub fn from_word(word: U256) -> Self {
        let bytes = word.to_be_bytes();
        Address::from_slice(&bytes[12..])
    }
}

impl From<U256> for Address {
    fn from(word: U256) -> Self {
        Address::from_word(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b256_u256_roundtrip() {
        let v = U256::from(0xdead_beefu64);
        let h = B256::from(v);
        assert_eq!(h.into_u256(), v);
        assert_eq!(h.0[31], 0xef);
    }

    #[test]
    fn address_word_roundtrip() {
        let a = Address::from_low_u64(0x1234_5678);
        let w = a.into_word();
        assert_eq!(Address::from_word(w), a);
        // High bytes of the word are zero.
        assert_eq!(w.to_be_bytes()[..12], [0u8; 12]);
    }

    #[test]
    fn address_from_word_truncates() {
        let w = U256::MAX;
        let a = Address::from_word(w);
        assert_eq!(a.0, [0xffu8; 20]);
    }

    #[test]
    fn parse_and_display() {
        let s = "0x00000000000000000000000000000000000000000000000000000000000000ff";
        let h: B256 = s.parse().unwrap();
        assert_eq!(h.into_u256(), U256::from(255u64));
        assert_eq!(h.to_string(), s);

        let a: Address = "0xffffffffffffffffffffffffffffffffffffffff".parse().unwrap();
        assert_eq!(a.0, [0xff; 20]);
        assert!("0x1234".parse::<Address>().is_err());
        assert!("zz".parse::<B256>().is_err());
    }

    #[test]
    fn zero_and_is_zero() {
        assert!(B256::ZERO.is_zero());
        assert!(Address::ZERO.is_zero());
        assert!(!Address::from_low_u64(1).is_zero());
    }

    #[test]
    fn debug_nonempty() {
        assert!(!format!("{:?}", B256::ZERO).is_empty());
        assert!(format!("{:?}", Address::ZERO).contains("Address"));
    }
}
