//! # byzreg-core
//!
//! The paper's contribution: three SWMR register types that provide
//! signature properties **without signatures**, in systems with `n > 3f`
//! processes of which `f` may be Byzantine (Hu & Toueg, *"You can lie but
//! not deny"*, PODC 2025).
//!
//! * [`verifiable`] — Algorithm 1: `Write`/`Read`/`Sign`/`Verify`,
//! * [`authenticated`] — Algorithm 2: every `Write` atomically "signed",
//! * [`sticky`] — Algorithm 3: the first written value never changes,
//! * [`test_or_set`] — §10: test-or-set from each register (Observation 30)
//!   plus the *naive* plain-register implementations broken by the Figure 1
//!   histories (Theorem 29),
//! * [`attacks`] — canned Byzantine adversary strategies,
//! * [`quorum`] — the shared `set0`/`set1` voting engine of §5.1 and the
//!   reply/asker register fabric all three algorithms install,
//! * [`api`] — the [`SignatureRegister`] trait layer: one generic interface
//!   (install / writer / reader, sign / verify) over all three families,
//!   for harnesses that iterate over register types.
//!
//! # Quick start
//!
//! ```
//! use byzreg_core::VerifiableRegister;
//! use byzreg_runtime::{ProcessId, System};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let system = System::builder(4).build(); // n = 4, f = 1
//! let reg = VerifiableRegister::install(&system, 0u64);
//! let mut writer = reg.writer();
//! let mut reader = reg.reader(ProcessId::new(2));
//!
//! writer.write(7)?;
//! writer.sign(&7)?;
//! assert!(reader.verify(&7)?); // and no one can ever deny it
//! system.shutdown();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod attacks;
pub mod authenticated;
pub mod quorum;
pub mod sticky;
pub mod test_or_set;
pub mod verifiable;

#[cfg(test)]
mod tests;

pub use api::{Family, SignatureRegister, SignatureSigner, SignatureVerifier};
pub use authenticated::{AuthenticatedReader, AuthenticatedRegister, AuthenticatedWriter};
pub use sticky::{StickyReader, StickyRegister, StickyWriter};
pub use test_or_set::{
    TosFromAuthenticated, TosFromSticky, TosFromVerifiable, TosSetter, TosTester,
};
pub use verifiable::{VerifiableReader, VerifiableRegister, VerifiableWriter};
