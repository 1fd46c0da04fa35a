//! A hosted Platform-as-a-Service for computational web services.
//!
//! The paper's stated future work: "building a hosted Platform-as-a-Service
//! (PaaS) for development, sharing and integration of computational web
//! services based on the described software platform" (§6). This module is
//! that extension: a multi-tenant layer over [`Everest`] where users
//! register accounts, upload service configurations over REST, and get
//! isolated namespaces with owner-controlled sharing.
//!
//! * `POST /paas/register` `{"user": …}` — create an account (an identity),
//! * `PUT /paas/{user}/services/{name}` — upload a service configuration
//!   (the same config-only format as [`crate::load_config`]); the service
//!   deploys as `{user}--{name}`, private to its owner by default,
//! * `POST /paas/{user}/services/{name}/share` `{"with": ["cert:…"]}` —
//!   grant access to other identities,
//! * `DELETE /paas/{user}/services/{name}` — undeploy,
//! * `GET /paas/{user}/services` — list a user's services.
//!
//! Tenancy checks ride on the platform's security mechanism: management
//! calls must be authenticated as the owning user (certificate or OpenID);
//! invoking a hosted service goes through the normal per-service policy.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use mathcloud_http::{PathParams, Request, Response, Router};
use mathcloud_json::{json, Value};
use mathcloud_security::{AccessPolicy, AuthConfig, Identity};
use mathcloud_telemetry::sync::RwLock;

use crate::config::{build_policyless_service, AdapterRegistry};
use crate::container::Everest;

/// A hosted service record.
#[derive(Debug, Clone)]
struct Hosted {
    /// Deployed (namespaced) service name.
    deployed_name: String,
    /// Identities granted access besides the owner.
    shared_with: Vec<Identity>,
}

struct State {
    /// Registered account identities, keyed by user name.
    accounts: HashMap<String, Identity>,
    /// `(user, service)` → record.
    services: HashMap<(String, String), Hosted>,
}

/// The multi-tenant PaaS layer.
#[derive(Clone)]
pub struct Paas {
    everest: Everest,
    registry: Arc<AdapterRegistry>,
    state: Arc<RwLock<State>>,
}

impl fmt::Debug for Paas {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.read();
        f.debug_struct("Paas")
            .field("accounts", &state.accounts.len())
            .field("services", &state.services.len())
            .finish()
    }
}

impl Paas {
    /// Creates a PaaS over a container. `registry` supplies named resources
    /// that uploaded configurations may reference.
    pub fn new(everest: Everest, registry: AdapterRegistry) -> Self {
        Paas {
            everest,
            registry: Arc::new(registry),
            state: Arc::new(RwLock::new(State {
                accounts: HashMap::new(),
                services: HashMap::new(),
            })),
        }
    }

    /// The underlying container.
    pub fn container(&self) -> &Everest {
        &self.everest
    }

    /// Registers an account: `user` owned by `identity`. Fails when the name
    /// is taken by a different identity (re-registration is idempotent).
    pub fn register(&self, user: &str, identity: Identity) -> Result<(), String> {
        if user.is_empty() || !user.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-') {
            return Err("user names must be non-empty [a-z0-9-]".into());
        }
        let mut state = self.state.write();
        match state.accounts.get(user) {
            Some(existing) if *existing != identity => {
                Err(format!("user {user:?} is already registered"))
            }
            _ => {
                state.accounts.insert(user.to_string(), identity);
                Ok(())
            }
        }
    }

    /// The deployed (namespaced) service name for `user`'s `name`.
    pub fn deployed_name(user: &str, name: &str) -> String {
        format!("{user}--{name}")
    }

    fn owner_of(&self, user: &str) -> Option<Identity> {
        self.state.read().accounts.get(user).cloned()
    }

    fn require_owner(&self, user: &str, caller: &Identity) -> Result<(), Response> {
        match self.owner_of(user) {
            None => Err(Response::error(404, &format!("no such user {user:?}"))),
            Some(owner) if owner == *caller => Ok(()),
            Some(_) => Err(Response::error(
                403,
                "only the account owner may manage its services",
            )),
        }
    }

    /// Deploys a service configuration into `user`'s namespace.
    ///
    /// # Errors
    ///
    /// A human-readable reason (unknown user, bad configuration).
    pub fn deploy(&self, user: &str, name: &str, config: &Value) -> Result<String, String> {
        let owner = self
            .owner_of(user)
            .ok_or_else(|| format!("no such user {user:?}"))?;
        let deployed_name = Self::deployed_name(user, name);
        let (mut description, adapter) =
            build_policyless_service(&deployed_name, config, &self.registry)
                .map_err(|e| e.to_string())?;
        description = description.tag("paas").tag(&format!("owner:{user}"));

        let mut state = self.state.write();
        let key = (user.to_string(), name.to_string());
        let shared_with = state
            .services
            .get(&key)
            .map(|h| h.shared_with.clone())
            .unwrap_or_default();
        let mut policy = AccessPolicy::new();
        policy.allow(owner);
        for id in &shared_with {
            policy.allow(id.clone());
        }
        self.everest
            .deploy_with_policy_boxed(description, adapter, policy);
        state.services.insert(
            key,
            Hosted {
                deployed_name: deployed_name.clone(),
                shared_with,
            },
        );
        Ok(deployed_name)
    }

    /// Grants `identities` access to `user`'s service `name`.
    pub fn share(&self, user: &str, name: &str, identities: &[Identity]) -> Result<(), String> {
        let owner = self
            .owner_of(user)
            .ok_or_else(|| format!("no such user {user:?}"))?;
        let mut state = self.state.write();
        let key = (user.to_string(), name.to_string());
        let hosted = state
            .services
            .get_mut(&key)
            .ok_or_else(|| format!("no such service {name:?}"))?;
        for id in identities {
            if !hosted.shared_with.contains(id) {
                hosted.shared_with.push(id.clone());
            }
        }
        // Rebuild the policy on the live service.
        let mut policy = AccessPolicy::new();
        policy.allow(owner);
        for id in &hosted.shared_with {
            policy.allow(id.clone());
        }
        let deployed = hosted.deployed_name.clone();
        drop(state);
        self.everest.replace_policy(&deployed, policy);
        Ok(())
    }

    /// Undeploys `user`'s service `name`.
    pub fn remove(&self, user: &str, name: &str) -> bool {
        let mut state = self.state.write();
        if let Some(hosted) = state.services.remove(&(user.to_string(), name.to_string())) {
            drop(state);
            self.everest.undeploy(&hosted.deployed_name);
            true
        } else {
            false
        }
    }

    /// Service names hosted for `user`.
    pub fn list(&self, user: &str) -> Vec<String> {
        let state = self.state.read();
        let mut names: Vec<String> = state
            .services
            .keys()
            .filter(|(u, _)| u == user)
            .map(|(_, n)| n.clone())
            .collect();
        names.sort();
        names
    }

    /// Mounts the PaaS management API onto a router. Requests are expected
    /// to have passed the security middleware (identities read from the
    /// request annotations).
    pub fn mount(&self, router: &mut Router) {
        let paas = self.clone();
        router.post("/paas/register", move |req: &Request, _p| {
            let identity = AuthConfig::identity_of(req);
            if !identity.is_authenticated() {
                return Response::error(401, "registration requires credentials");
            }
            let body = match req.body_json() {
                Ok(v) => v,
                Err(e) => return Response::error(400, &format!("bad json: {e}")),
            };
            let Some(user) = body.str_field("user") else {
                return Response::error(400, "missing user");
            };
            match paas.register(user, identity) {
                Ok(()) => Response::json(201, &json!({ "user": user })),
                Err(e) => Response::error(409, &e),
            }
        });

        let paas = self.clone();
        router.put(
            "/paas/{user}/services/{name}",
            move |req: &Request, p: &PathParams| {
                let user = p.get("user").expect("route has {user}");
                let name = p.get("name").expect("route has {name}");
                let caller = AuthConfig::identity_of(req);
                if let Err(resp) = paas.require_owner(user, &caller) {
                    return resp;
                }
                let config = match req.body_json() {
                    Ok(v) => v,
                    Err(e) => return Response::error(400, &format!("bad json: {e}")),
                };
                match paas.deploy(user, name, &config) {
                    Ok(deployed) => Response::json(
                        201,
                        &json!({
                            "service": deployed,
                            "uri": (mathcloud_core::uri::service(&Paas::deployed_name(user, name))),
                        }),
                    ),
                    Err(e) => Response::error(400, &e),
                }
            },
        );

        let paas = self.clone();
        router.post(
            "/paas/{user}/services/{name}/share",
            move |req: &Request, p: &PathParams| {
                let user = p.get("user").expect("route has {user}");
                let name = p.get("name").expect("route has {name}");
                let caller = AuthConfig::identity_of(req);
                if let Err(resp) = paas.require_owner(user, &caller) {
                    return resp;
                }
                let body = match req.body_json() {
                    Ok(v) => v,
                    Err(e) => return Response::error(400, &format!("bad json: {e}")),
                };
                let identities: Vec<Identity> = body
                    .get("with")
                    .and_then(Value::as_array)
                    .map(|a| {
                        a.iter()
                            .filter_map(Value::as_str)
                            .map(Identity::decode)
                            .collect()
                    })
                    .unwrap_or_default();
                match paas.share(user, name, &identities) {
                    Ok(()) => Response::empty(204),
                    Err(e) => Response::error(404, &e),
                }
            },
        );

        let paas = self.clone();
        router.delete(
            "/paas/{user}/services/{name}",
            move |req: &Request, p: &PathParams| {
                let user = p.get("user").expect("route has {user}");
                let name = p.get("name").expect("route has {name}");
                let caller = AuthConfig::identity_of(req);
                if let Err(resp) = paas.require_owner(user, &caller) {
                    return resp;
                }
                if paas.remove(user, name) {
                    Response::empty(204)
                } else {
                    Response::error(404, "no such service")
                }
            },
        );

        let paas = self.clone();
        router.get(
            "/paas/{user}/services",
            move |_req: &Request, p: &PathParams| {
                let user = p.get("user").expect("route has {user}");
                if paas.owner_of(user).is_none() {
                    return Response::error(404, &format!("no such user {user:?}"));
                }
                let names: Vec<Value> = paas.list(user).into_iter().map(Value::from).collect();
                Response::json(200, &Value::Array(names))
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn paas() -> Paas {
        Paas::new(Everest::new("paas-host"), AdapterRegistry::new())
    }

    fn alice() -> Identity {
        Identity::certificate("CN=alice")
    }

    fn bob() -> Identity {
        Identity::certificate("CN=bob")
    }

    fn echo_config() -> Value {
        json!({
            "description": "echo via cat",
            "inputs": {"text": {"type": "string"}},
            "outputs": {"echo": {"type": "string"}},
            "adapter": {"type": "command", "program": "/bin/cat", "args": [], "stdin": "text", "stdout": "echo"}
        })
    }

    #[test]
    fn register_validates_names_and_ownership() {
        let p = paas();
        assert!(p.register("alice", alice()).is_ok());
        assert!(p.register("alice", alice()).is_ok(), "idempotent");
        assert!(p.register("alice", bob()).is_err(), "name taken");
        assert!(p.register("", alice()).is_err());
        assert!(p.register("has space", alice()).is_err());
    }

    #[test]
    fn deployed_services_are_namespaced_and_private() {
        let p = paas();
        p.register("alice", alice()).unwrap();
        let deployed = p.deploy("alice", "echo", &echo_config()).unwrap();
        assert_eq!(deployed, "alice--echo");
        assert!(p.container().description("alice--echo").is_some());

        use crate::container::Caller;
        assert!(p
            .container()
            .authorize("alice--echo", &Caller::direct(alice()))
            .is_ok());
        assert!(p
            .container()
            .authorize("alice--echo", &Caller::direct(bob()))
            .is_err());
        // And it actually runs for the owner.
        let rep = p
            .container()
            .submit_and_wait(
                "alice--echo",
                json!({"text": "hosted!"}),
                Some(&Caller::direct(alice())),
                None,
                None,
                Some(Duration::from_secs(10)),
            )
            .unwrap()
            .rep;
        assert_eq!(
            rep.outputs.unwrap().get("echo").unwrap().as_str(),
            Some("hosted!")
        );
    }

    #[test]
    fn sharing_extends_the_policy() {
        let p = paas();
        p.register("alice", alice()).unwrap();
        p.deploy("alice", "echo", &echo_config()).unwrap();
        p.share("alice", "echo", &[bob()]).unwrap();
        use crate::container::Caller;
        assert!(p
            .container()
            .authorize("alice--echo", &Caller::direct(bob()))
            .is_ok());
        assert!(p
            .container()
            .authorize(
                "alice--echo",
                &Caller::direct(Identity::certificate("CN=carol"))
            )
            .is_err());
        // Shares survive redeployment of the same service.
        p.deploy("alice", "echo", &echo_config()).unwrap();
        assert!(p
            .container()
            .authorize("alice--echo", &Caller::direct(bob()))
            .is_ok());
    }

    #[test]
    fn remove_and_list() {
        let p = paas();
        p.register("alice", alice()).unwrap();
        p.deploy("alice", "echo", &echo_config()).unwrap();
        p.deploy("alice", "echo2", &echo_config()).unwrap();
        assert_eq!(p.list("alice"), ["echo", "echo2"]);
        assert!(p.remove("alice", "echo"));
        assert!(!p.remove("alice", "echo"));
        assert_eq!(p.list("alice"), ["echo2"]);
        assert!(p.container().description("alice--echo").is_none());
    }

    #[test]
    fn unknown_users_and_bad_configs_are_rejected() {
        let p = paas();
        assert!(p.deploy("ghost", "x", &echo_config()).is_err());
        p.register("alice", alice()).unwrap();
        assert!(p
            .deploy("alice", "bad", &json!({"adapter": {"type": "warp"}}))
            .is_err());
        assert!(p.share("alice", "missing", &[bob()]).is_err());
    }
}
