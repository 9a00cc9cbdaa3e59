//! The counting factory is transparent: a store driven through it returns
//! what a store over the bare backend returns, and takes the same gate
//! steps.

use std::sync::Arc;

use byzreg_core::api::SignatureRegister;
use byzreg_core::{AuthenticatedRegister, StickyRegister, VerifiableRegister};
use byzreg_mp::{MpFactory, NetConfig};
use byzreg_runtime::{LocalFactory, ProcessId, RegisterFactory};
use byzreg_store::workload::{bogus_value_of, value_of};
use byzreg_store::{ByzStore, StoreConfig};
use byzreg_storebench::run::build_system;
use byzreg_storebench::trace::{Class, Hub, Op, Role, TracedFactory};

/// A fixed single-threaded sequence over a few keys: writes, then reads,
/// single verifies and batched calls. Returns every outcome.
fn outcomes<R: SignatureRegister<u64>, F: RegisterFactory>(factory: F) -> Vec<String> {
    let system = build_system();
    let store: ByzStore<'_, u64, u64, R, F> =
        ByzStore::new(&system, factory, 0, StoreConfig { shards: 4 });
    let p2 = ProcessId::new(2);
    let mut out = Vec::new();
    for key in 0..6u64 {
        out.push(format!("{:?}", store.write(key, value_of(key))));
    }
    for key in 0..8u64 {
        out.push(format!("{:?}", store.read(p2, &key)));
        out.push(format!("{:?}", store.verify(p2, &key, &value_of(key))));
        out.push(format!("{:?}", store.verify(p2, &key, &bogus_value_of(key))));
    }
    out.push(format!("{:?}", store.read_many(p2, &[3, 1, 3, 7])));
    let checks = [(1, value_of(1)), (2, bogus_value_of(2)), (1, value_of(1)), (5, value_of(5))];
    out.push(format!("{:?}", store.verify_many(p2, &checks)));
    system.shutdown();
    out
}

fn traced_outcomes<R: SignatureRegister<u64>, F: RegisterFactory>(
    factory: F,
) -> (Vec<String>, Arc<Hub>) {
    let hub = Arc::new(Hub::new());
    hub.set_recording(true);
    let got = outcomes::<R, _>(TracedFactory::new(factory, Arc::clone(&hub)));
    hub.set_recording(false);
    (got, hub)
}

fn same_results_through_the_wrapper<R: SignatureRegister<u64>>() {
    let bare = outcomes::<R, _>(LocalFactory);
    let (traced, hub) = traced_outcomes::<R, _>(LocalFactory);
    assert_eq!(bare, traced, "{}", R::FAMILY);
    assert!(hub.totals().all_count() > 0, "{}: the wrapper saw the accesses", R::FAMILY);
}

#[test]
fn verifiable_results_are_unchanged_by_the_wrapper() {
    same_results_through_the_wrapper::<VerifiableRegister<u64>>();
}

#[test]
fn authenticated_results_are_unchanged_by_the_wrapper() {
    same_results_through_the_wrapper::<AuthenticatedRegister<u64>>();
}

#[test]
fn sticky_results_are_unchanged_by_the_wrapper() {
    same_results_through_the_wrapper::<StickyRegister<u64>>();
}

#[test]
fn mp_results_are_unchanged_by_the_wrapper() {
    let net =
        || MpFactory::with_workers(NetConfig::jittery(std::time::Duration::from_micros(200), 3), 2);
    let bare = outcomes::<AuthenticatedRegister<u64>, _>(net());
    let (traced, _) = traced_outcomes::<AuthenticatedRegister<u64>, _>(net());
    assert_eq!(bare, traced);
}

/// Gate steps of a single-threaded sequence that needs no helper: writes
/// and signs of both writer-side families, and verifiable reads (which
/// read `R*` only). No help engine runs, so the count is exact.
fn helper_free_steps<F: RegisterFactory>(factory: F) -> u64 {
    let system = build_system();
    let verifiable: ByzStore<'_, u64, u64, VerifiableRegister<u64>, &F> =
        ByzStore::new(&system, &factory, 0, StoreConfig { shards: 2 });
    let authenticated: ByzStore<'_, u64, u64, AuthenticatedRegister<u64>, &F> =
        ByzStore::new(&system, &factory, 0, StoreConfig { shards: 2 });
    let p3 = ProcessId::new(3);
    for round in 0..3u64 {
        for key in 0..5u64 {
            verifiable.write(key, value_of(key + round)).unwrap();
            authenticated.write(key, value_of(key + round)).unwrap();
            assert_eq!(verifiable.read(p3, &key).unwrap(), Some(value_of(key + round)));
        }
    }
    let steps = system.env().gate().steps();
    system.shutdown();
    steps
}

#[test]
fn gate_steps_are_unchanged_by_the_wrapper() {
    let bare = helper_free_steps(LocalFactory);
    assert_eq!(bare, helper_free_steps(LocalFactory), "the sequence is deterministic");
    let hub = Arc::new(Hub::new());
    hub.set_recording(true);
    let traced = helper_free_steps(TracedFactory::new(LocalFactory, Arc::clone(&hub)));
    assert_eq!(bare, traced);
    // Every access the wrapper saw was one of those steps.
    assert_eq!(hub.totals().all_count(), traced);
    assert!(hub.totals().count(Role::Other, Class::R1, Op::Rmw) > 0);
}
