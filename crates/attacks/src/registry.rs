//! The name-based attack registry: maps attack names to boxed constructors
//! so front ends (the CLI's `--attack` flag, the batch harness, sweep
//! drivers) can instantiate engines from configuration strings.
//!
//! [`AttackRegistry::with_baselines`] registers every attack implemented in
//! this crate; the `kratt` crate's `attack_registry()` adds KRATT itself on
//! top and is what consumers normally start from.

use crate::appsat::AppSatAttack;
use crate::ddip::DoubleDipAttack;
use crate::engine::Attack;
use crate::error::AttackError;
use crate::fall::FallAttack;
use crate::removal::RemovalAttack;
use crate::sat_attack::SatAttack;
use crate::scope::ScopeAttack;

/// A boxed attack constructor.
type Constructor = Box<dyn Fn() -> Box<dyn Attack> + Send + Sync>;

/// A registry of attacks by name. Registration order is preserved: it is the
/// order `names`/`build_all` iterate in, and re-registering a name replaces
/// the constructor in place.
#[derive(Default)]
pub struct AttackRegistry {
    entries: Vec<(String, Constructor)>,
}

impl AttackRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        AttackRegistry::default()
    }

    /// A registry with every baseline attack of this crate registered under
    /// its paper name: `"sat"`, `"double-dip"`, `"appsat"`, `"fall"`,
    /// `"removal"` and `"scope"`.
    pub fn with_baselines() -> Self {
        let mut registry = AttackRegistry::new();
        registry.register("sat", || Box::new(SatAttack::new()));
        registry.register("double-dip", || Box::new(DoubleDipAttack::new()));
        registry.register("appsat", || Box::new(AppSatAttack::new()));
        registry.register("fall", || Box::new(FallAttack::new()));
        registry.register("removal", || Box::new(RemovalAttack::new()));
        registry.register("scope", || Box::new(ScopeAttack::new()));
        registry
    }

    /// Registers (or replaces) an attack constructor under `name`.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        constructor: impl Fn() -> Box<dyn Attack> + Send + Sync + 'static,
    ) {
        let name = name.into();
        let constructor: Constructor = Box::new(constructor);
        match self
            .entries
            .iter_mut()
            .find(|(existing, _)| *existing == name)
        {
            Some(entry) => entry.1 = constructor,
            None => self.entries.push((name, constructor)),
        }
    }

    /// Whether an attack is registered under `name`.
    pub fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(existing, _)| existing == name)
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(name, _)| name.as_str()).collect()
    }

    /// Constructs the attack registered under `name`.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::UnknownAttack`] for an unregistered name.
    pub fn build(&self, name: &str) -> Result<Box<dyn Attack>, AttackError> {
        self.entries
            .iter()
            .find(|(existing, _)| existing == name)
            .map(|(_, constructor)| constructor())
            .ok_or_else(|| AttackError::UnknownAttack(name.to_string()))
    }

    /// Constructs every registered attack, in registration order.
    pub fn build_all(&self) -> Vec<Box<dyn Attack>> {
        self.entries
            .iter()
            .map(|(_, constructor)| constructor())
            .collect()
    }
}

impl std::fmt::Debug for AttackRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackRegistry")
            .field("names", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ThreatModel;

    #[test]
    fn baselines_are_registered_in_order() {
        let registry = AttackRegistry::with_baselines();
        assert_eq!(
            registry.names(),
            vec!["sat", "double-dip", "appsat", "fall", "removal", "scope"]
        );
        assert!(registry.contains("sat"));
        assert!(!registry.contains("kratt"));
    }

    #[test]
    fn build_resolves_names_and_rejects_unknown_ones() {
        let registry = AttackRegistry::with_baselines();
        let sat = registry.build("sat").unwrap();
        assert_eq!(sat.name(), "sat");
        assert!(sat.supports(ThreatModel::OracleGuided));
        assert!(matches!(
            registry.build("frobnicate"),
            Err(AttackError::UnknownAttack(name)) if name == "frobnicate"
        ));
        assert_eq!(registry.build_all().len(), registry.names().len());
    }

    #[test]
    fn re_registration_replaces_in_place() {
        let mut registry = AttackRegistry::with_baselines();
        registry.register("sat", || Box::new(ScopeAttack::new()));
        assert_eq!(registry.names().len(), 6);
        assert_eq!(registry.build("sat").unwrap().name(), "scope");
    }
}
